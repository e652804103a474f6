"""Loading, filtering, splitting, and persisting implicit-feedback data.

Raw logs are delimiter-separated text with columns user, item, and
optionally rating and timestamp. Ratings and timestamps are checked while
parsing, then dropped: a parsed log is its rows with ids coded as
integers. From the activity filter on, a dataset is integer (user, item)
index pairs on a user-item bipartite graph, plus the tuples of external
ids.
"""

import hashlib
import re
from dataclasses import dataclass, replace

import numpy as np

from .bundles import write_atomic
from .config import SplitSpec
from .errors import DataError

CANONICAL_MAGIC = "wavelet-cf-dataset"
CANONICAL_VERSION = "v1"


@dataclass(eq=False)
class InteractionSet:
    """Binarized interaction matrix plus its id <-> index maps.

    `pairs` is an (nnz, 2) int64 array of (user, item) indices, sorted
    lexicographically; a repeated pair is a DataError. `user_ids[u]` /
    `item_ids[i]` recover the external identifiers.
    """

    num_users: int
    num_items: int
    pairs: np.ndarray
    user_ids: tuple
    item_ids: tuple

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        du, di = np.diff(pairs[:, 0]), np.diff(pairs[:, 1])
        if np.all((du > 0) | ((du == 0) & (di > 0))):  # sorted, none repeated
            pairs = pairs.copy()
        else:
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            if np.all(pairs[1:] == pairs[:-1], axis=1).any():
                raise DataError("duplicate (user, item) pairs")
        pairs.setflags(write=False)
        self.pairs = pairs

    @property
    def num_pairs(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def user_index(self) -> dict:
        return {uid: u for u, uid in enumerate(self.user_ids)}

    def user_degrees(self) -> np.ndarray:
        return np.bincount(self.pairs[:, 0], minlength=self.num_users)

    def item_degrees(self) -> np.ndarray:
        return np.bincount(self.pairs[:, 1], minlength=self.num_items)

    def items_by_user(self) -> list:
        """Item index array per user, ascending, empty where a user has none."""
        bounds = np.cumsum(self.user_degrees())[:-1]
        return np.split(self.pairs[:, 1].copy(), bounds)

    def validate(self) -> None:
        """Check index-range and coverage invariants: every user and item
        index occurs in at least one pair, and no external id names two."""
        if self.num_users < 1 or self.num_items < 1 or self.num_pairs == 0:
            raise DataError("dataset fully filtered")
        if len(self.user_ids) != self.num_users or len(self.item_ids) != self.num_items:
            raise DataError("id map sizes disagree with declared dimensions")
        for kind, ids in (("user", self.user_ids), ("item", self.item_ids)):
            seen = set()
            for x in ids:
                if x in seen:
                    raise DataError(f"repeated {kind} id {x!r}")
                seen.add(x)
        if self.pairs[:, 0].min() < 0 or self.pairs[:, 0].max() >= self.num_users:
            raise DataError("user index out of range")
        if self.pairs[:, 1].min() < 0 or self.pairs[:, 1].max() >= self.num_items:
            raise DataError("item index out of range")
        if (self.user_degrees() == 0).any() or (self.item_degrees() == 0).any():
            raise DataError("orphan user or item index after filtering")

    def __eq__(self, other):
        if not isinstance(other, InteractionSet):
            return NotImplemented
        return (
            self.num_users == other.num_users
            and self.num_items == other.num_items
            and np.array_equal(self.pairs, other.pairs)
            and tuple(self.user_ids) == tuple(other.user_ids)
            and tuple(self.item_ids) == tuple(other.item_ids)
        )


@dataclass(eq=False)
class InteractionLog:
    """The rows of a raw log, ids coded as integers.

    `users[r]` / `items[r]` are the int64 codes of row r, rows in file
    order; `user_ids[c]` / `item_ids[c]` is the external id of code c,
    codes numbered in order of first appearance.
    """

    users: np.ndarray
    items: np.ndarray
    user_ids: tuple
    item_ids: tuple

    def __eq__(self, other):
        if not isinstance(other, InteractionLog):
            return NotImplemented
        return (
            np.array_equal(self.users, other.users)
            and np.array_equal(self.items, other.items)
            and self.user_ids == other.user_ids
            and self.item_ids == other.item_ids
        )


def _read(path):
    """Bytes of `path` with the line ends text mode reads, each CR LF and
    each lone CR an LF, and their uint8 view; a file that cannot be read or
    is not UTF-8 is a DataError naming the path. No multi-byte UTF-8
    sequence holds a CR or an LF byte."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw, np.frombuffer(raw, dtype=np.uint8)


def _is_data(line: str) -> bool:
    """Whether a text line holds data: it is neither blank nor a comment."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


DIGIT_GROUPS = re.compile(r"\d+(?:_\d+)*")


def _timestamp(text: str) -> int:
    """Check `text` as `int()` reads it with no digit limit: each run of
    digit groups is read as 0, so the digit limit, which the interpreter's
    settings fix, never decides whether a timestamp parses."""
    return int(DIGIT_GROUPS.sub("0", text))


def _parse_line(path, lineno: int, line: str, delim: str) -> tuple:
    """The (user_id, item_id) of one data line; a line that breaks a rule
    is a DataError naming its number."""
    cols = line.split(delim)
    if len(cols) < 2:
        raise DataError(f"{path}: line {lineno}: expected at least 2 columns")
    user_id, item_id = cols[0].strip(), cols[1].strip()
    if not user_id or not item_id:
        raise DataError(f"{path}: line {lineno}: empty user or item id")
    for col, kind, parse in ((2, "rating", float), (3, "timestamp", _timestamp)):
        if len(cols) > col and cols[col].strip():
            try:
                parse(cols[col])
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: unparseable {kind} {cols[col]!r}"
                ) from None
    return user_id, item_id


def _spans(buf: np.ndarray, starts: np.ndarray, widths: np.ndarray):
    """(rows, block) for each distinct width: `rows` ascending, `block`
    their spans as an (n, width) uint8 array."""
    narrow = widths.astype(np.min_scalar_type(widths.max(initial=0)))
    order = np.argsort(narrow, kind="stable")  # a radix sort up to 16 bits
    for rows in np.split(order, np.flatnonzero(np.diff(widths[order])) + 1):
        if len(rows):
            windows = np.lib.stride_tricks.sliding_window_view(buf, widths[rows[0]])
            yield rows, windows[starts[rows]]


def _numbers(buf, starts, ends, dots: int) -> np.ndarray:
    """Whether each span is digits, at least one, with at most `dots` '.'."""
    ok = np.zeros(len(starts), dtype=bool)
    for rows, block in _spans(buf, starts, ends - starts):
        digit = block - np.uint8(ord("0")) <= 9
        dot = block == ord(".")
        ok[rows] = (digit | dot).all(1) & (dot.sum(1) <= dots) & digit.any(1)
    return ok


def _distinct(keys: np.ndarray):
    """Dense codes of `keys`, equal keys (equal rows, if 2-D) sharing a
    code, and the index of each code's first entry."""
    keys = keys[:, None] if keys.ndim == 1 else keys
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(1)
    codes = np.empty(len(keys), dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(new)) if len(keys) else order
    return codes, first


def _by_first_appearance(codes: np.ndarray, first: np.ndarray):
    """`codes` renumbered in the order of their first entries `first`,
    and those first entries in that order."""
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[codes], first[order]


def _first_appearance(keys: np.ndarray):
    """`keys` coded in order of first appearance, and the index of each
    code's first entry."""
    return _by_first_appearance(*_distinct(keys))


def _code(buf, starts, widths):
    """Codes of the byte spans in order of first appearance, and the
    distinct spans decoded."""
    codes = np.empty(len(starts), dtype=np.int64)
    firsts = [np.zeros(0, dtype=np.int64)]
    for rows, block in _spans(buf, starts, widths):
        # each span zero-padded to whole 8-byte words: one uint64 key per word
        words = np.zeros((len(rows), -(-block.shape[1] // 8) * 8), dtype=np.uint8)
        words[:, : block.shape[1]] = block
        local, first = _distinct(words.view(np.uint64))
        codes[rows] = local + sum(map(len, firsts))
        firsts.append(rows[first])
    codes, first = _by_first_appearance(codes, np.concatenate(firsts))
    ids = tuple(
        buf[s: s + w].tobytes().decode("utf-8")
        for s, w in zip(starts[first].tolist(), widths[first].tolist())
    )
    return codes, ids


def _delimiter(raw: bytes, starts, ends, lines) -> str:
    """The delimiter that the first data line among `lines` sets: tab if it
    holds one, else comma, also when there is no data line."""
    decoded = (raw[starts[r]: ends[r]].decode("utf-8") for r in lines)
    return "\t" if "\t" in next(filter(_is_data, decoded), "") else ","


def _plain_lines(buf, starts, ends, candidates, delim: str):
    """The lines among `candidates` (a mask) that the bulk check vouches
    for, and where each one's user and item fields end. A line's text runs
    from its start to its end, before its LF."""
    marks = np.append(np.flatnonzero(buf == ord(delim)), len(buf))
    # bytes a plain line cannot hold: all but printable ASCII and delimiters
    odd = buf - np.uint8(ord("!")) > ord("~") - ord("!")
    odd[ends[:-1]] = False  # the LF of each line
    odd[marks[:-1]] = False
    candidates = candidates.copy()
    candidates[np.searchsorted(ends, np.flatnonzero(odd))] = False
    del odd
    lines = np.flatnonzero(candidates)
    s, e = starts[lines], ends[lines]
    first_mark = np.searchsorted(marks, s)
    n_marks = np.searchsorted(marks, e) - first_mark
    # each of the first four fields ends at its delimiter, else the line's end
    e0, e1, e2, e3 = (
        np.where(n_marks > j, marks[np.minimum(first_mark + j, len(marks) - 1)], e)
        for j in range(4)
    )
    ok = (n_marks >= 1) & (e0 > s) & (e1 > e0 + 1)
    rated, stamped = n_marks >= 2, n_marks >= 3
    ok[rated] &= _numbers(buf, e1[rated] + 1, e2[rated], dots=1)
    ok[stamped] &= _numbers(buf, e2[stamped] + 1, e3[stamped], dots=0)
    return lines[ok], e0[ok], e1[ok]


def _parsed_lines(path, raw: bytes, starts, ends, lines, delim: str):
    """The rows of `lines` as `_parse_line` reads them: the line of each
    row, and where its user and item ids start in `raw` and their widths
    in bytes. A stripped id starts with a character that is not space, so
    the first match of its bytes past the start of its field is it."""
    rows, mark = [], delim.encode()
    for r, s, e in zip(lines.tolist(), starts[lines].tolist(), ends[lines].tolist()):
        line = raw[s:e].decode("utf-8")
        if _is_data(line):
            user, item = _parse_line(path, r + 1, line, delim)
            user, item = user.encode(), item.encode()
            u = raw.index(user, s)
            i = raw.index(item, raw.index(mark, u) + 1)  # in the item field
            rows += (r, u, len(user), i, len(item))
    rows = np.array(rows, dtype=np.int64).reshape(-1, 5)
    return rows[:, 0], rows[:, 1:].T


def load_interactions(path) -> InteractionLog:
    """Parse a delimiter-separated interaction log into coded (user, item)
    rows in file order.

    Line ends are read as text mode reads them: a CR LF or a lone CR ends
    a line, as an LF does. The first data line sets the delimiter for the
    whole file: tab if it holds one, else comma. Blank lines and lines
    starting with '#' are skipped. Each data row needs user and item
    columns; a third column must parse as a float rating and a fourth as
    an integer timestamp, of any number of digits. Both are checked, then
    dropped: the interactions are binary.

    The file is read once as bytes. A plain line (printable ASCII ids, a
    rating of digits with at most one '.', a timestamp of digits) is
    checked in bulk; every other line is parsed by `_parse_line` to the
    same row or the same error. The ids of all rows are then coded
    together, as byte spans, in file order.
    """
    raw, buf = _read(path)
    newlines = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], newlines + 1))
    ends = np.append(newlines, len(buf))
    # every line but blank ones and comments
    candidates = ends > starts
    candidates[candidates] = buf[starts[candidates]] != ord("#")
    delim = _delimiter(raw, starts, ends, np.flatnonzero(candidates))
    plain, user_end, item_end = _plain_lines(buf, starts, ends, candidates, delim)
    candidates[plain] = False
    # the start and width of each line's user id, then of its item id; no
    # row's id is empty, so the rows are the lines with a user id width
    spans = np.zeros((4, len(starts)), dtype=np.int64)
    spans[0, plain] = starts[plain]
    spans[1, plain] = user_end - starts[plain]
    spans[2, plain] = user_end + 1
    spans[3, plain] = item_end - user_end - 1
    slow, slow_spans = _parsed_lines(
        path, raw, starts, ends, np.flatnonzero(candidates), delim
    )
    spans[:, slow] = slow_spans
    user_at, user_width, item_at, item_width = spans.compress(spans[1] > 0, axis=1)
    users, user_ids = _code(buf, user_at, user_width)
    items, item_ids = _code(buf, item_at, item_width)
    return InteractionLog(users, items, user_ids, item_ids)


def filter_by_activity(
    log: InteractionLog, min_user: int, min_item: int
) -> InteractionSet:
    """Binarize a log's rows and drop low-activity users/items to a fixed
    point.

    Users with fewer than `min_user` distinct items and items with fewer
    than `min_item` distinct users are removed; removals can cascade, so
    the thresholds are re-applied until nothing changes. The surviving
    core is unique, so both sides are peeled at once. Surviving
    users/items get contiguous indices in first-appearance order.
    """
    if min_user < 1 or min_item < 1:
        raise DataError("activity thresholds must be >= 1")
    num_users, num_items = len(log.user_ids), len(log.item_ids)
    # distinct pairs, kept in order of first appearance
    _, first = _first_appearance(log.users * num_items + log.items)
    users, items = log.users[first], log.items[first]

    while True:
        low_users = np.bincount(users, minlength=num_users) < min_user
        low_items = np.bincount(items, minlength=num_items) < min_item
        keep = ~(low_users[users] | low_items[items])
        if keep.all():
            break
        users, items = users[keep], items[keep]
    if len(users) == 0:
        raise DataError("dataset fully filtered")

    user_index, user_first = _first_appearance(users)
    item_index, item_first = _first_appearance(items)
    num_items = len(item_first)
    # handed over sorted, so InteractionSet need not sort them
    keys = np.sort(user_index * num_items + item_index)
    return InteractionSet(
        num_users=len(user_first),
        num_items=num_items,
        pairs=np.column_stack(np.divmod(keys, num_items)),
        user_ids=tuple(log.user_ids[c] for c in users[user_first].tolist()),
        item_ids=tuple(log.item_ids[c] for c in items[item_first].tolist()),
    )


def split(data: InteractionSet, spec: SplitSpec):
    """Partition interactions per user into train and test.

    Each user's items are randomly permuted under `spec.seed`; the first
    max(1, floor(n * train_fraction)) go to train, the rest to test. A user
    with a single interaction trains on it and contributes no test items.
    With `per_user_cap` above 0, each user's training items are further
    down-sampled to the cap and the capped-out pairs are discarded.

    Items that would end up with no training interaction are repaired so
    the training graph never has zero-degree nodes: one of the item's
    capped-out pairs is put back into train, or, when it has none, one of
    its held-out pairs is moved from test to train; either way the pair
    of the smallest user index is taken.
    """
    rng = np.random.default_rng(spec.seed)
    degrees = data.user_degrees()
    starts = np.cumsum(degrees) - degrees
    # one draw per user, in user order: this is what fixes the split
    perms = [starts[u] + rng.permutation(n) for u, n in enumerate(degrees) if n]
    # each pair's position in its user's shuffled order, in sorted pair order
    rank = np.empty(data.num_pairs, dtype=np.int64)
    if perms:
        order = np.concatenate(perms)
        rank[order] = np.arange(data.num_pairs) - np.repeat(starts, degrees)
    n_train = np.maximum(1, np.floor(degrees * spec.train_fraction).astype(np.int64))
    cap = spec.per_user_cap or n_train
    trained = rank < np.repeat(n_train, degrees)
    train = rank < np.repeat(np.minimum(n_train, cap), degrees)
    items = data.pairs[:, 1]

    def promote(source):
        """Move into train, for each item it lacks, the `source` pair of the
        smallest user: the item's first in sorted order."""
        covered = np.zeros(data.num_items, dtype=bool)
        covered[items[train]] = True
        rows = np.flatnonzero(source & ~covered[items])
        _, first = np.unique(items[rows], return_index=True)
        train[rows[first]] = True

    promote(trained & ~train)  # capped-out pairs
    promote(~trained)  # held-out pairs
    test = ~trained & ~train
    return replace(data, pairs=data.pairs[train]), replace(data, pairs=data.pairs[test])


def _pair_block(pairs: np.ndarray) -> bytes:
    """The `u<TAB>i<LF>` lines of `pairs` as ASCII, built per column: exact
    `// 10` digits, leading zeros (never the last digit) blanked to NUL,
    then the tab or newline; NUL cells drop out of the row-major interleave."""
    if pairs.size and pairs.min() < 0:
        raise DataError("negative index in pairs")
    rows = []
    for col, end in ((pairs[:, 0], "\t"), (pairs[:, 1], "\n")):
        width = len(str(col.max())) if col.size else 1
        digits = np.full((width + 1, len(col)), ord(end), dtype=np.uint8)
        q = col
        for k in range(width - 1, -1, -1):
            tens = q // 10
            digits[k] = q - 10 * tens + ord("0")
            q = tens
        digits[: width - 1] *= col >= 10 ** np.arange(width - 1, 0, -1)[:, None]
        rows.append(digits)
    block = np.vstack(rows).T.ravel()
    return block[block != 0].tobytes()


def _head(data: InteractionSet, seed: int) -> bytes:
    """The header line of the canonical text."""
    return (
        f"{CANONICAL_MAGIC} {CANONICAL_VERSION} {data.num_users} "
        f"{data.num_items} {data.num_pairs} {seed}\n"
    ).encode("utf-8")


def _body(data: InteractionSet) -> bytes:
    """The canonical text after its header: the pair lines, then the ids."""
    for ids, kind in ((data.user_ids, "user"), (data.item_ids, "item")):
        for ident in ids:
            if "\n" in ident or "\t" in ident or "\r" in ident:
                raise DataError(
                    f"{kind} id {ident!r} contains a tab, newline or carriage return"
                )
    ids = "\n".join(["#users", *data.user_ids, "#items", *data.item_ids, ""])
    return _pair_block(data.pairs) + ids.encode("utf-8")


def _digest(data: InteractionSet, body: bytes) -> str:
    """The hash of the canonical text whose header has seed 0 and whose rest
    is `body`."""
    digest = hashlib.sha256(_head(data, seed=0))
    digest.update(body)
    return digest.hexdigest()


def dataset_hash(data: InteractionSet) -> str:
    """Content hash of a dataset, independent of any split seed."""
    return _digest(data, _body(data))


def persist(data: InteractionSet, path, seed: int = 0) -> str:
    """Write the canonical dataset format (see README for the layout), and
    return `dataset_hash(data)`, hashed from the text written.

    The file is replaced atomically, so a crash mid-write leaves any
    earlier dataset at `path` intact."""
    body = _body(data)
    write_atomic(path, [_head(data, seed), body])
    return _digest(data, body)


def _header(path, line: str) -> dict:
    head = line.rstrip("\n").split(" ")
    if len(head) != 6 or head[0] != CANONICAL_MAGIC:
        raise DataError(f"{path}: not a canonical dataset file")
    try:
        counts = [int(x) for x in head[2:]]
    except ValueError:
        counts = None
    # only the spelling `persist` writes: not `+2`, `02`, `-0`, `0_7` or
    # non-ASCII digits, which `int` accepts
    if counts is None or [str(c) for c in counts] != head[2:]:
        raise DataError(f"{path}: malformed header counts")
    keys = ("num_users", "num_items", "num_pairs", "seed")
    return {"version": head[1], **dict(zip(keys, counts))}


def _parse_pairs(path, buf: np.ndarray, start: int, ends) -> np.ndarray:
    """The (nnz, 2) int64 pairs of the lines of `buf` from `start` whose
    LFs are `ends`. Each line must be exactly what `_pair_block` writes:
    two runs of 1 to 19 digits with no leading zero, each at most int64's
    maximum, joined by a tab. The first line that is not (numbered from
    the file's start, the pair block starting on line 2) is a DataError."""
    zero = np.uint8(ord("0"))
    # each field stops at the next byte that is not a digit: while the
    # lines before line r are well formed, its stops are its tab and its LF
    stops = np.flatnonzero(buf[start: ends[-1] + 1] - zero > 9) + start
    stops = np.resize(stops, 2 * len(ends))  # too few or many only past one
    gaps = np.diff(stops, prepend=start - 1)  # a field's width plus one
    good = (gaps >= 2) & (gaps <= 20)
    widths = gaps.clip(2, 20).astype(np.uint8) - np.uint8(1)
    good &= (buf[stops - widths] != zero) | (widths == 1)
    # the digit k places before a stop is buf[top - 1 - k:][base]; nine
    # digits at a time fit a uint32, and 19 never wrap a uint64
    top = int(widths.max(initial=0))
    base = stops - top
    parts = []
    for lo in range(0, top, 9):
        part = np.zeros(len(stops), dtype=np.uint32)
        for k in range(lo, min(lo + 9, top)):
            digit = (buf[top - 1 - k:][base] - zero) * (widths > k)
            part += digit.astype(np.uint32) * 10 ** (k - lo)
        parts.append(part.astype(np.uint64) * 10**lo)
    values = sum(parts)
    good &= values <= np.iinfo(np.int64).max
    ok = good[0::2] & good[1::2] & (buf[stops[0::2]] == ord("\t")) & (stops[1::2] == ends)
    if not ok.all():
        raise DataError(f"{path}: line {np.argmin(ok) + 2}: malformed pair")
    return values.view(np.int64).reshape(-1, 2)


def load_canonical(path) -> InteractionSet:
    """Read a canonical dataset file. Every file `persist` writes reads back
    as the dataset written. A pair line must be exactly what `persist`
    writes; one that spells its integers otherwise (`00`, `+0`, a space
    beside a field) is a DataError naming its line. The pair block is
    parsed in bulk, as bytes."""
    raw, buf = _read(path)
    ends = np.flatnonzero(buf == ord("\n"))  # the LF of every line but the last
    head_end = ends[0] if len(ends) else len(raw)
    if not head_end:
        raise DataError(f"{path}: empty file")
    head = _header(path, raw[:head_end].decode("utf-8"))
    if head["version"] != CANONICAL_VERSION:
        raise DataError(
            f"{path}: version mismatch: file has {head['version']!r}, "
            f"expected {CANONICAL_VERSION!r}"
        )
    m, k, nnz = head["num_users"], head["num_items"], head["num_pairs"]
    if m < 1 or k < 1 or nnz < 1:
        raise DataError("dataset fully filtered")
    # the header, the pair lines, `#users`, m ids, `#items` and k ids, each
    # line ended by an LF but the last, whose LF may be missing
    if len(ends) - raw.endswith(b"\n") != nnz + m + k + 2:
        raise DataError(f"{path}: truncated or trailing content")
    tail = raw[ends[nnz] + 1:].decode("utf-8").split("\n")
    pairs = _parse_pairs(path, buf, ends[0] + 1, ends[1: nnz + 1])
    if tail[0] != "#users":
        raise DataError(f"{path}: missing #users section")
    user_ids = tuple(tail[1: 1 + m])
    if tail[1 + m] != "#items":
        raise DataError(f"{path}: missing #items section")
    item_ids = tuple(tail[2 + m: 2 + m + k])
    out = InteractionSet(
        num_users=m, num_items=k, pairs=pairs, user_ids=user_ids, item_ids=item_ids
    )
    out.validate()
    return out
