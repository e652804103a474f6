"""Loading, filtering, splitting, and persisting implicit-feedback data.

Raw logs are delimiter-separated text with columns user, item, and
optionally rating and timestamp. Ratings and timestamps are checked while
parsing, then dropped; from the activity filter on, a dataset is integer
(user, item) index pairs on a user-item bipartite graph, plus the tuples
of external ids.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bundles import write_atomic
from .errors import DataError

CANONICAL_MAGIC = "wavelet-cf-dataset"
CANONICAL_VERSION = "v1"


@dataclass(frozen=True)
class SplitSpec:
    """Per-user train/test split parameters.

    `per_user_cap` further down-samples each user's training items to at
    most the cap (cold-start protocol); capped-out pairs are discarded.
    """

    train_fraction: float = 0.8
    seed: int = 0
    per_user_cap: Optional[int] = None

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise DataError(
                f"train_fraction must lie strictly in (0,1), got {self.train_fraction}"
            )
        if self.per_user_cap is not None and self.per_user_cap < 1:
            raise DataError(f"per_user_cap must be >= 1, got {self.per_user_cap}")


@dataclass(eq=False)
class InteractionSet:
    """Binarized interaction matrix plus its id <-> index maps.

    `pairs` is an (nnz, 2) int64 array of (user, item) indices, sorted
    lexicographically and free of duplicates. `user_ids[u]` / `item_ids[i]`
    recover the external identifiers.
    """

    num_users: int
    num_items: int
    pairs: np.ndarray
    user_ids: tuple
    item_ids: tuple

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        du, di = np.diff(pairs[:, 0]), np.diff(pairs[:, 1])
        if np.all((du > 0) | ((du == 0) & (di >= 0))):  # already sorted
            pairs = pairs.copy()
        else:
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
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

    def validate(self, require_coverage: bool = True) -> None:
        """Check index-range and duplicate invariants.

        `require_coverage` additionally demands that every user and item
        index occurs in at least one pair; split subsets share the parent
        maps and are validated without it.
        """
        if self.num_users < 1 or self.num_items < 1:
            raise DataError("dataset fully filtered")
        if len(self.user_ids) != self.num_users or len(self.item_ids) != self.num_items:
            raise DataError("id map sizes disagree with declared dimensions")
        if self.num_pairs:
            if self.pairs[:, 0].min() < 0 or self.pairs[:, 0].max() >= self.num_users:
                raise DataError("user index out of range")
            if self.pairs[:, 1].min() < 0 or self.pairs[:, 1].max() >= self.num_items:
                raise DataError("item index out of range")
            dup = np.all(self.pairs[1:] == self.pairs[:-1], axis=1)
            if dup.any():
                raise DataError("duplicate (user, item) pairs")
        if require_coverage:
            if self.num_pairs == 0:
                raise DataError("dataset fully filtered")
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


def _detect_delimiter(line: str) -> str:
    return "\t" if "\t" in line else ","


def _read(path, first_line: bool = False) -> str:
    """Text of `path`, or only its first line; a file that cannot be read
    or is not UTF-8 is a DataError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readline() if first_line else fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def load_interactions(path, fmt: str = "auto") -> list:
    """Parse a delimiter-separated interaction log into (user_id, item_id)
    string pairs in file order.

    fmt is "auto" (per-file detection on the first data line), "tsv", or
    "csv". Lines starting with '#' are skipped. Each data row needs
    user and item columns; a third column must parse as a float rating and
    a fourth as an integer timestamp. Both are checked, then dropped: the
    interactions are binary.
    """
    if fmt not in ("auto", "tsv", "csv"):
        raise DataError(f"unknown format descriptor: {fmt!r}")
    delim = {"tsv": "\t", "csv": ","}.get(fmt)
    rows = []
    for lineno, line in enumerate(_read(path).split("\n"), start=1):
        line = line.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if delim is None:
            delim = _detect_delimiter(line)
        cols = line.split(delim)
        if len(cols) < 2:
            raise DataError(f"{path}: line {lineno}: expected at least 2 columns")
        user_id, item_id = cols[0].strip(), cols[1].strip()
        if not user_id or not item_id:
            raise DataError(f"{path}: line {lineno}: empty user or item id")
        for col, kind, parse in ((2, "rating", float), (3, "timestamp", int)):
            if len(cols) > col and cols[col].strip():
                try:
                    parse(cols[col])
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: unparseable {kind} {cols[col]!r}"
                    ) from None
        rows.append((user_id, item_id))
    return rows


def _first_appearance(codes: np.ndarray):
    """Distinct values of `codes` in order of first appearance, and each
    entry of `codes` relabelled by that order."""
    uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return uniq[order], rank[inverse]


def filter_by_activity(rows, min_user: int, min_item: int) -> InteractionSet:
    """Binarize (user_id, item_id) rows and drop low-activity users/items
    to a fixed point.

    Users with fewer than `min_user` distinct items and items with fewer
    than `min_item` distinct users are removed; removals can cascade, so
    the thresholds are re-applied until nothing changes. The surviving
    core is unique, so both sides are peeled at once. Surviving
    users/items get contiguous indices in first-appearance order.
    """
    if min_user < 1 or min_item < 1:
        raise DataError("activity thresholds must be >= 1")
    user_codes, item_codes = {}, {}
    n = len(rows)
    users = np.fromiter(
        (user_codes.setdefault(u, len(user_codes)) for u, _ in rows), np.int64, n
    )
    items = np.fromiter(
        (item_codes.setdefault(i, len(item_codes)) for _, i in rows), np.int64, n
    )
    # distinct pairs, kept in order of first appearance
    _, first = np.unique(users * len(item_codes) + items, return_index=True)
    first.sort()
    users, items = users[first], items[first]

    while True:
        low_users = np.bincount(users, minlength=len(user_codes)) < min_user
        low_items = np.bincount(items, minlength=len(item_codes)) < min_item
        keep = ~(low_users[users] | low_items[items])
        if keep.all():
            break
        users, items = users[keep], items[keep]
    if len(users) == 0:
        raise DataError("dataset fully filtered")

    user_ids, item_ids = list(user_codes), list(item_codes)
    user_order, users = _first_appearance(users)
    item_order, items = _first_appearance(items)
    out = InteractionSet(
        num_users=len(user_order),
        num_items=len(item_order),
        pairs=np.column_stack((users, items)),
        user_ids=tuple(user_ids[c] for c in user_order),
        item_ids=tuple(item_ids[c] for c in item_order),
    )
    out.validate(require_coverage=True)
    return out


def split(data: InteractionSet, spec: SplitSpec):
    """Partition interactions per user into train and test.

    Each user's items are randomly permuted under `spec.seed`; the first
    max(1, floor(n * train_fraction)) go to train, the rest to test. A user
    with a single interaction trains on it and contributes no test items.
    With `per_user_cap` set, each user's training items are further
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
    shuffled = data.pairs[np.concatenate(perms)] if perms else data.pairs
    rank = np.arange(data.num_pairs) - np.repeat(starts, degrees)
    n_train = np.maximum(1, np.floor(degrees * spec.train_fraction).astype(np.int64))
    cap = n_train if spec.per_user_cap is None else spec.per_user_cap
    trained = rank < np.repeat(n_train, degrees)
    kept = rank < np.repeat(np.minimum(n_train, cap), degrees)
    train, capped, test = shuffled[kept], shuffled[trained & ~kept], shuffled[~trained]

    def promote(train, source):
        """Rows of `source` that hold, for each item `train` lacks, the
        pair of the smallest user."""
        covered = np.zeros(data.num_items, dtype=bool)
        covered[train[:, 1]] = True
        rows = np.flatnonzero(~covered[source[:, 1]])
        rows = rows[np.lexsort((source[rows, 0], source[rows, 1]))]
        _, first = np.unique(source[rows, 1], return_index=True)
        return rows[first]

    train = np.concatenate((train, capped[promote(train, capped)]))
    moved = promote(train, test)
    train = np.concatenate((train, test[moved]))
    test = np.delete(test, moved, axis=0)

    def assemble(pairs):
        return InteractionSet(
            num_users=data.num_users,
            num_items=data.num_items,
            pairs=pairs,
            user_ids=data.user_ids,
            item_ids=data.item_ids,
        )

    train, test = assemble(train), assemble(test)
    train.validate(require_coverage=False)
    test.validate(require_coverage=False)
    return train, test


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


def _serialize(data: InteractionSet, seed: int) -> bytes:
    for ids, kind in ((data.user_ids, "user"), (data.item_ids, "item")):
        for ident in ids:
            if "\n" in ident or "\t" in ident or "\r" in ident:
                raise DataError(
                    f"{kind} id {ident!r} contains a tab, newline or carriage return"
                )
    head = (
        f"{CANONICAL_MAGIC} {CANONICAL_VERSION} {data.num_users} "
        f"{data.num_items} {data.num_pairs} {seed}\n"
    )
    ids = "\n".join(["#users", *data.user_ids, "#items", *data.item_ids, ""])
    return head.encode("utf-8") + _pair_block(data.pairs) + ids.encode("utf-8")


def dataset_hash(data: InteractionSet) -> str:
    """Content hash of a dataset, independent of any split seed."""
    return hashlib.sha256(_serialize(data, seed=0)).hexdigest()


def persist(data: InteractionSet, path, seed: int = 0) -> None:
    """Write the canonical dataset format (see README for the layout).

    The file is replaced atomically, so a crash mid-write leaves any
    earlier dataset at `path` intact."""
    write_atomic(path, [_serialize(data, seed)])


def _header(path, line: str) -> dict:
    head = line.rstrip("\n").split(" ")
    if len(head) != 6 or head[0] != CANONICAL_MAGIC:
        raise DataError(f"{path}: not a canonical dataset file")
    try:
        counts = [int(x) for x in head[2:]]
    except ValueError:
        raise DataError(f"{path}: malformed header counts") from None
    keys = ("num_users", "num_items", "num_pairs", "seed")
    return {"version": head[1], **dict(zip(keys, counts))}


def _pair_rows(lines: list):
    """`lines` as an int64 array of shape (len(lines), 2), or None."""
    if not all(lines):  # loadtxt would skip a blank line
        return None
    try:
        rows = np.loadtxt(lines, dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape == (len(lines), 2) else None


def _parse_pairs(path, lines: list) -> np.ndarray:
    """The (nnz, 2) int64 pair block; the first malformed line (numbered
    from the file's start) is a DataError."""
    rows = _pair_rows(lines)
    if rows is None:
        lineno = next(
            n for n, line in enumerate(lines, start=2) if _pair_rows([line]) is None
        )
        raise DataError(f"{path}: line {lineno}: malformed pair")
    return rows


def load_canonical(path) -> InteractionSet:
    """Read a canonical dataset file; exact inverse of `persist`."""
    lines = _read(path).split("\n")
    if not lines[0]:
        raise DataError(f"{path}: empty file")
    head = _header(path, lines[0])
    if head["version"] != CANONICAL_VERSION:
        raise DataError(
            f"{path}: version mismatch: file has {head['version']!r}, "
            f"expected {CANONICAL_VERSION!r}"
        )
    m, k, nnz = head["num_users"], head["num_items"], head["num_pairs"]
    if m < 1 or k < 1 or nnz < 1:
        raise DataError("dataset fully filtered")
    expected = 1 + nnz + 1 + m + 1 + k
    body = lines[1:]
    if len(body) < expected - 1 or (len(body) >= expected and body[expected - 1] != ""):
        raise DataError(f"{path}: truncated or trailing content")
    pairs = _parse_pairs(path, body[:nnz])
    if body[nnz] != "#users":
        raise DataError(f"{path}: missing #users section")
    user_ids = tuple(body[nnz + 1: nnz + 1 + m])
    if body[nnz + 1 + m] != "#items":
        raise DataError(f"{path}: missing #items section")
    item_ids = tuple(body[nnz + 2 + m: nnz + 2 + m + k])
    out = InteractionSet(
        num_users=m, num_items=k, pairs=pairs, user_ids=user_ids, item_ids=item_ids
    )
    out.validate(require_coverage=True)
    return out


def canonical_header(path) -> dict:
    """Header fields of a canonical dataset file without loading the body."""
    return _header(path, _read(path, first_line=True))
