"""Tests for parsing, activity filtering, splitting, and the canonical format."""

import builtins
import contextlib
import hashlib
import sys

import numpy as np
import pytest
from helpers import (
    canonical_header,
    from_rows,
    random_bipartite,
    reference_rows,
    reference_serialize,
    reference_split,
)

from waveletcf import ingest
from waveletcf.cli import main
from waveletcf.errors import ConfigError, DataError
from waveletcf.ingest import (
    InteractionSet,
    SplitSpec,
    dataset_hash,
    filter_by_activity,
    load_canonical,
    load_interactions,
    persist,
    split,
)


def test_load_three_line_tsv(tmp_path):
    p = tmp_path / "log.tsv"
    p.write_text("u1\ti1\nu1\ti2\nu2\ti1\n")
    log = load_interactions(p)
    assert log == from_rows([("u1", "i1"), ("u1", "i2"), ("u2", "i1")])
    assert log.users.tolist() == [0, 0, 1] and log.items.tolist() == [0, 1, 0]
    assert (log.user_ids, log.item_ids) == (("u1", "u2"), ("i1", "i2"))


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("")
    assert load_interactions(p) == from_rows([])
    with pytest.raises(DataError, match="fully filtered"):
        filter_by_activity(load_interactions(p), 1, 1)


def test_load_one_column_row_errors_with_line_number(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("u1\n")
    with pytest.raises(DataError, match="line 1"):
        load_interactions(p)


def test_load_csv_with_rating_and_timestamp(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text("# comment\nu1,i1,4.0,100\nu2,i2,,200\n")
    want = from_rows([("u1", "i1"), ("u2", "i2")])
    assert load_interactions(p) == want


def test_load_unparseable_rating(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("u1,i1,notanumber\n")
    with pytest.raises(DataError, match="line 1"):
        load_interactions(p)


def test_load_unparseable_timestamp(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("u1,i1,4.0,100\nu2,i2,3.5,noon\n")
    with pytest.raises(DataError, match="line 2: unparseable timestamp"):
        load_interactions(p)


def test_load_missing_file():
    with pytest.raises(DataError):
        load_interactions("/nonexistent/path.tsv")


def random_log(rng) -> bytes:
    """A log that mixes plain lines with every kind the bulk check leaves to
    the per-line rules: odd rating, timestamp and id forms, comments,
    blank lines, lone CR line ends, ragged and malformed rows, now and then
    a byte that is not UTF-8. Short and long ids, and CR LF ends, occur
    on both kinds of line."""
    delim = "\t" if rng.random() < 0.5 else ","
    # forms a column may take in place of a plain value, some plain too
    forms = {
        "id": ["a b", " u1", "u1 ", "é", "ü2", "\ufeffu0", "#u", "x\x00", ""]
        + [" user-00000001", "user-00000002 ", "üser-00000003", "a long id"],
        "rating": ["", " ", "4.0", ".5", "5.", "1_0", "1e3", "+5", "nan", "x", "4..0"],
        "timestamp": ["", "1_0", "+5", " 7", "1e3", "1.5", "noon", "-3"],
    }
    lines = []
    for _ in range(rng.integers(1, 30)):
        kind = rng.random()
        if kind < 0.08:
            lines.append(rng.choice(["# comment", "  # indented", "#\tc,x", "", "  "]))
            continue
        # ids of 2 bytes and of 8, 9, 13, 14, 16 or 17: one, two and three
        # 8-byte words, ending at a word boundary or one byte past it
        cols = [
            f"{rng.choice(['u', 'user-00', 'user-0000000', 'user-0000000000'])}"
            f"{rng.integers(6)}",
            f"{rng.choice(['i', 'item-000', 'item-00000000', 'item-00000000000'])}"
            f"{rng.integers(6)}",
        ]
        cols += [str(rng.integers(1, 6)), str(978300000 + rng.integers(10**6)), "x"][
            : rng.integers(0, 4)
        ]
        if kind < 0.3:  # one column in another form
            j = int(rng.integers(len(cols)))
            other = forms[("id", "id", "rating", "timestamp", "rating")[j]]
            cols[j] = other[rng.integers(len(other))]
        elif kind < 0.33:
            cols = cols[:1]
        lines.append(delim.join(cols))
    ends = rng.choice(["\n", "\r\n", "\r"], size=len(lines), p=[0.85, 0.1, 0.05])
    text = "".join(map(str.__add__, lines, ends))
    if rng.random() < 0.3:  # the last line without its end
        text = text[:-1]
    return text.encode("utf-8") + (b"\xff" if rng.random() < 0.02 else b"")


def test_bulk_parse_matches_the_per_line_rules(tmp_path, monkeypatch):
    per_line, coded = [], []
    parse_line, code = ingest._parse_line, ingest._code
    monkeypatch.setattr(
        ingest, "_parse_line", lambda *a: per_line.append(a) or parse_line(*a)
    )
    monkeypatch.setattr(ingest, "_code", lambda *a: coded.append(a) or code(*a))
    outcomes = {"log": 0, "error": 0}
    rows = {"bulk": 0, "per line": 0}
    rng = np.random.default_rng(0)
    # lone CRs next to a CR LF or at the end of the file, then random logs
    logs = [
        b"\nu1\ti1\r",
        b"u1\ti1\r\r\nu2\ti2\nu3\ti3\tbad\n",
        b"\r\n#c\r\nu1,i1\r\n\ru2,i2,x\r\n",
        # plain and per-line rows of the same ids, ids first seen on a
        # per-line row, and a per-line item id after a two-byte user id
        " u2\t i1 \nu1\ti1\n u1\t i1 \nu2\ti2\né \tü2\nu1\ti3 \nu3\ti3\n".encode(),
    ]
    for n in range(304):
        p = tmp_path / f"log{n}.txt"
        p.write_bytes(logs[n] if n < len(logs) else random_log(rng))
        try:
            want = from_rows(reference_rows(p))
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_interactions(p)
            assert str(got.value) == str(exc)
            outcomes["error"] += 1
        else:
            per_line.clear()
            coded.clear()
            assert load_interactions(p) == want
            assert len(coded) == 2  # one `_code` call per column
            outcomes["log"] += 1
            rows["bulk"] += len(want.users) - len(per_line)
            rows["per line"] += len(per_line)
    assert min(outcomes.values()) > 50
    assert min(rows.values()) > 200


def test_plain_log_takes_no_per_line_step(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a plain line was parsed line by line")

    monkeypatch.setattr(ingest, "_parse_line", refuse)
    rng = np.random.default_rng(1)
    # ids of 2 or 3 bytes mixed with ids of 14 or 17
    rows = [
        (f"u{u}" if u % 3 else f"user-{u:012d}", f"i{i}" if i % 2 else f"item-{i:09d}")
        for u, i in rng.integers(0, 50, (400, 2))
    ]
    tails = ["", "\t5", "\t4.5\t978300000", "\t3.\t1\textra", "\t.5\t0"]
    lines = [f"{u}\t{i}{tails[k % 5]}" for k, (u, i) in enumerate(rows)]
    p = tmp_path / "log.tsv"
    p.write_text("# user\titem\trating\ttimestamp\n" + "\n".join(lines) + "\n\n")
    assert load_interactions(p) == from_rows(rows)
    p.write_text("#,comment\n" + "\n".join(lines).replace("\t", ","))
    assert load_interactions(p) == from_rows(rows)
    p.write_bytes(("# CR LF ends\r\n" + "\r\n".join(lines) + "\r\n\r\n").encode())
    assert load_interactions(p) == from_rows(rows)
    p.write_bytes(("# lone CR ends\r" + "\r".join(lines) + "\r\r").encode())
    assert load_interactions(p) == from_rows(rows)


@contextlib.contextmanager
def int_digit_limit(digits):
    """`int()`'s digit limit set to `digits` (0: none), restored after;
    interpreters before 3.10.7 have no limit to set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_timestamp_check_is_int_without_a_digit_limit(tmp_path):
    # digits of several scripts, digit separators, signs, spaces int()
    # strips and characters it does not, and runs of digits over the limit
    tokens = ["0", "7", "\u0663", "\uff15", "\U0001d7d9", "_", "__", "+", "-", " "]
    tokens += ["\xa0", "\u2003", "\x1c", "\x00", "a", ".", "e"]
    tokens += ["9" * 700, "1_" * 400, "\u0663" * 700]
    rng = np.random.default_rng(2)
    texts = ["".join(rng.choice(tokens, size=rng.integers(1, 6))) for _ in range(20000)]

    def accepted(parse, text) -> bool:
        try:
            parse(text)
        except (ValueError, DataError):
            return False
        return True

    def timestamp_column(text):
        ingest._parse_line("log", 1, f"u\ti\t4\t{text}", "\t")

    with int_digit_limit(0):
        want = [not t.strip() or accepted(int, t) for t in texts]
    with int_digit_limit(640):
        got = [accepted(timestamp_column, t) for t in texts]
    assert got == want
    assert min(sum(want), len(want) - sum(want)) > 3000

    # a 5000-digit timestamp on a plain line and on one read line by line
    stamp = "1" * 5000
    p = tmp_path / "log.csv"
    p.write_text(f"u1,i1,4,{stamp}\nu2, i2, 4, {stamp}\n")
    want = from_rows([("u1", "i1"), ("u2", "i2")])
    for digits in (640, 0):
        with int_digit_limit(digits):
            assert load_interactions(p) == want


def test_filter_thresholds_vacuous():
    log = from_rows([("a", "x"), ("a", "y"), ("b", "x")])
    data = filter_by_activity(log, 1, 1)
    assert data.num_users == 2 and data.num_items == 2
    assert data.num_pairs == 3


def test_filter_cascade_to_empty():
    log = from_rows([("a", "x"), ("a", "y"), ("b", "x")])
    with pytest.raises(DataError, match="fully filtered"):
        filter_by_activity(log, 2, 2)


def test_filter_collapses_duplicates():
    log = from_rows([("a", "x"), ("a", "x"), ("a", "y")])
    data = filter_by_activity(log, 1, 1)
    assert data.num_pairs == 2


def test_filter_idempotent():
    rng = np.random.default_rng(0)
    rows = [(f"u{rng.integers(30)}", f"i{rng.integers(40)}") for _ in range(400)]
    once = filter_by_activity(from_rows(rows), 3, 3)
    kept = [(once.user_ids[u], once.item_ids[i]) for u, i in once.pairs]
    again = filter_by_activity(from_rows(kept), 3, 3)
    assert once.num_users == again.num_users
    assert once.num_items == again.num_items
    assert once.num_pairs == again.num_pairs


def test_filter_first_appearance_order():
    log = from_rows([("b", "y"), ("a", "x"), ("b", "x")])
    data = filter_by_activity(log, 1, 1)
    assert data.user_ids == ("b", "a")
    assert data.item_ids == ("y", "x")
    assert data.user_index == {"b": 0, "a": 1}


def grid_dataset(num_users=12, num_items=9, degree=4, seed=5):
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(num_users):
        for i in rng.choice(num_items, size=degree, replace=False):
            rows.append((f"u{u}", f"i{int(i)}"))
    return filter_by_activity(from_rows(rows), 1, 1)


def test_split_exact_ratio():
    # five users sharing one catalog so every item keeps train coverage
    # without repair promotions that would distort the 8/2 ratio
    rows = [(f"u{u}", f"i{j}") for u in range(5) for j in range(10)]
    data = filter_by_activity(from_rows(rows), 1, 1)
    train, test = split(data, SplitSpec(train_fraction=0.8, seed=1))
    for u in range(5):
        assert np.count_nonzero(train.pairs[:, 0] == u) == 8
        assert np.count_nonzero(test.pairs[:, 0] == u) == 2


def test_split_is_partition():
    data = grid_dataset()
    train, test = split(data, SplitSpec(seed=2))
    tr = {tuple(p) for p in train.pairs}
    te = {tuple(p) for p in test.pairs}
    assert tr.isdisjoint(te)
    assert tr | te == {tuple(p) for p in data.pairs}


def test_split_deterministic():
    data = grid_dataset()
    t1 = split(data, SplitSpec(seed=9))
    t2 = split(data, SplitSpec(seed=9))
    assert t1[0] == t2[0] and t1[1] == t2[1]
    t3 = split(data, SplitSpec(seed=10))
    assert t3[0] != t1[0]


def test_split_single_interaction_user_goes_to_train():
    rows = [("solo", "i0")] + [("u", f"i{j}") for j in range(5)]
    data = filter_by_activity(from_rows(rows), 1, 1)
    train, test = split(data, SplitSpec(seed=0))
    solo = data.user_index["solo"]
    assert np.count_nonzero(train.pairs[:, 0] == solo) == 1
    assert np.count_nonzero(test.pairs[:, 0] == solo) == 0


def test_split_cap_retains_cap_items():
    rows = [("u", f"i{j}") for j in range(10)] + [("v", f"i{j}") for j in range(10)]
    data = filter_by_activity(from_rows(rows), 1, 1)
    train, _ = split(data, SplitSpec(seed=4, per_user_cap=3))
    # both users keep >= 1 via floor rule; cap truncates 8 -> 3, repairs may
    # promote a held-out pair for an item that lost all training coverage
    for u in (0, 1):
        assert np.count_nonzero(train.pairs[:, 0] == u) >= 3


def test_split_cap_vacuous_when_large():
    data = grid_dataset()
    a = split(data, SplitSpec(seed=6))
    b = split(data, SplitSpec(seed=6, per_user_cap=1000))
    assert a[0] == b[0] and a[1] == b[1]


def test_split_train_covers_every_item():
    for seed in range(8):
        data = grid_dataset(seed=seed)
        train, _ = split(data, SplitSpec(seed=seed, per_user_cap=2))
        assert (train.item_degrees() > 0).all()


def test_split_matches_the_shuffle_then_sort_oracle():
    repairs = {"capped": 0, "held-out": 0}
    for seed in range(12):
        data = random_bipartite(seed, max_nodes=160, density_range=(0.03, 0.3))
        degrees = data.user_degrees()
        for fraction, cap in ((0.8, 0), (0.5, 1), (0.3, 2), (0.8, 3), (0.1, 0)):
            spec = SplitSpec(train_fraction=fraction, seed=seed + 100, per_user_cap=cap)
            train, test = split(data, spec)
            ref_train, ref_test = reference_split(data, spec)
            assert np.array_equal(train.pairs, ref_train.pairs)
            assert np.array_equal(test.pairs, ref_test.pairs)
            # pairs moved by the repair, counted to show that both kinds ran
            n_train = np.maximum(1, np.floor(degrees * fraction).astype(np.int64))
            kept = np.minimum(n_train, cap or n_train).sum()
            held_out = (degrees - n_train).sum() - test.num_pairs
            repairs["held-out"] += held_out
            repairs["capped"] += train.num_pairs - kept - held_out
    assert min(repairs.values()) > 0


def assert_sorted_unique_in_range(data):
    pairs = data.pairs
    assert pairs.dtype == np.int64 and pairs.shape == (data.num_pairs, 2)
    assert (pairs >= 0).all()
    assert (pairs[:, 0] < data.num_users).all() and (pairs[:, 1] < data.num_items).all()
    # lexicographic order with no pair repeated
    assert (np.diff(pairs[:, 0] * data.num_items + pairs[:, 1]) > 0).all()


def test_filter_and_split_outputs_keep_the_dataset_invariants():
    # nothing re-checks what filter_by_activity and split return: the
    # invariants `validate` checks on a loaded dataset hold by construction
    rng = np.random.default_rng(0)
    for seed in range(20):
        n = int(rng.integers(200, 600))
        users, items = rng.integers(0, 40, n), rng.integers(0, 30, n)
        rows = [(f"u{u}", f"i{i}") for u, i in zip(users, items)]
        log = from_rows(rows)
        data = filter_by_activity(log, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        assert_sorted_unique_in_range(data)
        assert (data.user_degrees() > 0).all() and (data.item_degrees() > 0).all()
        assert (len(data.user_ids), len(data.item_ids)) == (data.num_users, data.num_items)
        for cap in (0, 1, int(rng.integers(2, 6))):
            spec = SplitSpec(rng.uniform(0.05, 0.95), seed=seed, per_user_cap=cap)
            for part in split(data, spec):
                assert_sorted_unique_in_range(part)
                assert (part.user_ids, part.item_ids) == (data.user_ids, data.item_ids)


def test_split_rejects_bad_fraction():
    bad = [
        {"train_fraction": 1.0},
        {"train_fraction": 0.0},
        {"train_fraction": "0.8"},
        # 0, not None, disables the cap; a bool is not a count
        {"per_user_cap": None},
        {"per_user_cap": True},
        {"per_user_cap": -1},
    ]
    for fields in bad:
        with pytest.raises(ConfigError):
            SplitSpec(**fields)


def test_roundtrip_identity(tmp_path):
    data = grid_dataset()
    p = tmp_path / "data.txt"
    persist(data, p, seed=123)
    back = load_canonical(p)
    assert back == data
    assert canonical_header(p)["seed"] == 123


def test_roundtrip_bit_exact(tmp_path):
    data = grid_dataset()
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    persist(data, p1, seed=7)
    persist(load_canonical(p1), p2, seed=7)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_errors(tmp_path):
    data = grid_dataset()
    p = tmp_path / "data.txt"
    persist(data, p)
    body = p.read_bytes()
    p.write_bytes(body[: len(body) // 2])
    with pytest.raises(DataError):
        load_canonical(p)
    # after the last item id, only the LF that `persist` writes, or nothing
    p.write_bytes(body[:-1])
    assert load_canonical(p) == data
    for tail in (b"\nfoo", b"\n\n", b"\n\nfoo", b"\n\n\n"):
        p.write_bytes(body[:-1] + tail)
        with pytest.raises(DataError, match="truncated or trailing content"):
            load_canonical(p)


def test_version_mismatch_errors(tmp_path):
    data = grid_dataset()
    p = tmp_path / "data.txt"
    persist(data, p)
    text = p.read_text().replace("wavelet-cf-dataset v1", "wavelet-cf-dataset v9", 1)
    p.write_text(text)
    with pytest.raises(DataError, match="version"):
        load_canonical(p)


def test_empty_header_errors(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("wavelet-cf-dataset v1 0 0 0 0\n#users\n#items\n")
    with pytest.raises(DataError, match="fully filtered"):
        load_canonical(p)


def test_malformed_header_counts_error(tmp_path, capsys):
    p, cache = tmp_path / "data.txt", tmp_path / "data.spec"
    # 2 users, 2 items, 4 pairs, seed 7; each spelling but `x9` is one `int`
    # reads, and only `persist`'s is accepted
    persist(grid_dataset(num_users=2, num_items=2, degree=2), p, seed=7)
    head, body = p.read_text(encoding="utf-8").split("\n", 1)
    for index, spelling in [(3, "x9"), (2, "+2"), (2, "02"), (2, "\u0662"),
                            (5, "0_7"), (5, "-0")]:
        fields = head.split(" ")
        fields[index] = spelling
        p.write_text(" ".join(fields) + "\n" + body, encoding="utf-8")
        assert main(["spectral", "--set", f"dataset={p}", "--set",
                     f"spectral_cache={cache}", "--force"]) == 3
        assert f"{p}: malformed header counts" in capsys.readouterr().err
        assert not cache.exists()
        for read in (canonical_header, load_canonical):
            with pytest.raises(DataError, match="malformed header counts"):
                read(p)


def test_persist_is_atomic(tmp_path, monkeypatch):
    p = tmp_path / "data.txt"
    persist(grid_dataset(seed=1), p)
    before = p.read_bytes()
    real_open = builtins.open

    class TornFile:
        """Writes half of what it is given, then fails as a crash would."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("simulated crash mid-write")

    def crashing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return TornFile(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", crashing_open)
    with pytest.raises(DataError, match="cannot write .*simulated crash"):
        persist(grid_dataset(seed=2), p)
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["data.txt"]


@pytest.mark.parametrize(
    "pairs, user_id, message",
    [
        # universal newlines would read the \r back as a line break
        ([[0, 0]], "a\rb", "'a\\\\rb'"),
        ([[-1, 0]], "a", "negative index"),
    ],
    ids=["carriage-return-id", "negative-index"],
)
def test_persist_refuses_what_it_cannot_read_back(tmp_path, pairs, user_id, message):
    p = tmp_path / "data.txt"
    persist(grid_dataset(), p)
    before = p.read_bytes()
    data = InteractionSet(
        num_users=1, num_items=1, pairs=pairs, user_ids=(user_id,), item_ids=("x",)
    )
    with pytest.raises(DataError, match=message):
        persist(data, p)
    assert p.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["data.txt"]


def writer_case(pairs, num_users=0, num_items=0, user_ids=("a",), item_ids=("b",)):
    """An InteractionSet for the writer alone: the header counts and id
    maps need not agree, since only the text is compared."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    top = int(pairs.max()) + 1 if len(pairs) else 1
    return InteractionSet(
        num_users=num_users or top,
        num_items=num_items or top,
        pairs=pairs,
        user_ids=user_ids,
        item_ids=item_ids,
    )


BOUNDARIES = sorted(
    {0, 2**31 - 1, 2**40} | {v for k in range(1, 12) for v in (10**k - 1, 10**k)}
)


@pytest.mark.parametrize(
    "pairs",
    [
        [(u, i) for u in BOUNDARIES for i in BOUNDARIES],
        [(0, 0)],
        [(2**40, 7)],
        [(9, 1_000_000)],
        np.zeros((0, 2)),
    ],
    ids=["digit-boundaries", "zero-row", "wide-user", "wide-item", "empty"],
)
def test_writer_matches_per_pair_oracle(pairs, tmp_path):
    data = writer_case(pairs)
    oracle_hash = hashlib.sha256(reference_serialize(data, 0)).hexdigest()
    for seed in (0, 42):
        assert persist(data, tmp_path / "data.txt", seed) == oracle_hash
        assert (tmp_path / "data.txt").read_bytes() == reference_serialize(data, seed)


def test_writer_hash_and_persist_match_oracle_on_random_set(tmp_path):
    rng = np.random.default_rng(11)
    users = rng.integers(0, 6_000, 50_000)
    items = (rng.pareto(1.2, 50_000) * 50).astype(np.int64) % 200_000
    data = writer_case(
        np.unique(np.column_stack((users, items)), axis=0),
        num_users=6_000,
        num_items=200_000,
        user_ids=tuple(f"user {u} é" for u in range(6_000)),
        item_ids=tuple(f"#{i}" for i in range(1_000)),
    )
    assert data.num_pairs > 40_000
    oracle_hash = hashlib.sha256(reference_serialize(data, 0)).hexdigest()
    assert dataset_hash(data) == oracle_hash
    p = tmp_path / "data.txt"
    assert persist(data, p, seed=3) == oracle_hash
    assert p.read_bytes() == reference_serialize(data, seed=3)


@pytest.mark.parametrize(
    "order", ["sorted", "reversed", "shuffled", "single", "empty"]
)
def test_interaction_set_sorts_only_a_copy(order):
    rng = np.random.default_rng(4)
    pairs = np.unique(rng.integers(0, 9, (60, 2)), axis=0)
    given = {
        "sorted": pairs,
        "reversed": pairs[::-1],
        "shuffled": rng.permutation(pairs),
        "single": pairs[:1],
        "empty": pairs[:0],
    }[order].copy()
    snapshot = given.copy()
    data = InteractionSet(
        num_users=9, num_items=9, pairs=given, user_ids=(), item_ids=()
    )
    expected = snapshot[np.lexsort((snapshot[:, 1], snapshot[:, 0]))]
    np.testing.assert_array_equal(data.pairs, expected)
    assert data.pairs.dtype == np.int64 and data.pairs.shape == expected.shape
    assert not data.pairs.flags.writeable
    assert given.flags.writeable
    assert not np.shares_memory(data.pairs, given)
    np.testing.assert_array_equal(given, snapshot)


def test_interaction_set_refuses_duplicate_pairs(tmp_path):
    rng = np.random.default_rng(4)
    pairs = np.unique(rng.integers(0, 9, (60, 2)), axis=0)
    for given in (
        [[0, 1], [0, 1], [1, 0]],  # sorted: this built with user degrees [2, 1]
        rng.permutation(np.vstack((pairs, pairs[::3]))),
    ):
        with pytest.raises(DataError, match="duplicate"):
            InteractionSet(
                num_users=9, num_items=9, pairs=given, user_ids=(), item_ids=()
            )
    # a canonical file with a repeated pair line is refused on load
    p = tmp_path / "data.txt"
    persist(grid_dataset(), p)
    head, first, second, rest = p.read_text().split("\n", 3)
    p.write_text("\n".join((head, first, first, rest)))
    with pytest.raises(DataError, match="duplicate"):
        load_canonical(p)


@pytest.mark.parametrize("kind", ["user", "item"])
def test_canonical_file_with_a_repeated_id_is_refused(tmp_path, kind):
    # `persist` writes each id once; a file naming one id twice would map
    # it to the last index that holds it, another user's or item's rows
    p = tmp_path / "data.txt"
    persist(grid_dataset(), p)
    lines = p.read_text().split("\n")
    at = lines.index(f"#{kind}s") + 1
    lines[at + 1] = lines[at]
    p.write_text("\n".join(lines))
    with pytest.raises(DataError, match=f"^repeated {kind} id {lines[at]!r}$"):
        load_canonical(p)


def pinned_log():
    """Rows with repeats, a four-step cascade at thresholds (2, 2), and
    users with a single interaction."""
    rows = [
        (f"u{u}", f"i{(3 * u + 2 * k) % 11}")
        for u in range(14)
        for k in range(1 + u % 6)
    ]
    rows += rows[::5]
    # at (2, 2): rare2 drops, then c2, then rare1, then c1
    rows += [("c1", "i0"), ("c1", "rare1"), ("c2", "rare1"), ("c2", "rare2")]
    rows += [("solo1", "i3"), ("solo2", "lonely")]
    return rows


def test_filter_and_split_bytes_are_pinned():
    rows = pinned_log()
    log = from_rows(rows)
    core = filter_by_activity(log, 2, 2)
    full = filter_by_activity(log, 1, 1)
    assert full.num_pairs == len(set(rows)) < len(rows)
    assert not {"c1", "c2"} & set(core.user_ids)
    assert not {"rare1", "rare2"} & set(core.item_ids)
    degrees = full.user_degrees()
    assert np.count_nonzero(degrees == 1) == 5
    train, test = split(full, SplitSpec(train_fraction=0.5, seed=3, per_user_cap=2))
    # the repair promotes a held-out pair of user 15 and a capped-out pair
    # of user 11
    held = degrees - np.maximum(1, degrees // 2)
    kept = np.minimum(2, degrees - held)
    trained, tested = train.user_degrees(), test.user_degrees()
    assert np.flatnonzero(tested < held).tolist() == [15]
    assert np.flatnonzero((trained > kept) & (tested == held)).tolist() == [11]
    # recorded before filter and split were vectorized: the bytes must not move
    sets = {"core": core, "full": full, "train": train, "test": test}
    assert {name: dataset_hash(data) for name, data in sets.items()} == {
        "core": "da9ac03c10d003afa28c0a5f2e8cd24cafc4972b7c56cac1a2c6a4f6b9819895",
        "full": "97ffe0ac8bbfe30a80364e0e2b65bf7eb2dd4399a4f8547312c67b42e7375c69",
        "train": "a43e6f91e45cd74a5cb821b0e9b79af41825880d7a30b1e6fca4e6ac50f40ad0",
        "test": "e270b28d6c03cc6753aec1274ba7c77ca078959860318a8074501ecd736d0592",
    }


def test_dataset_hash_matches_file_and_ignores_seed(tmp_path):
    data = grid_dataset()
    p = tmp_path / "data.txt"
    persist(data, p, seed=0)
    assert dataset_hash(data) == hashlib.sha256(p.read_bytes()).hexdigest()
    persist(data, p, seed=99)
    assert dataset_hash(load_canonical(p)) == dataset_hash(data)


def test_interaction_set_rejects_out_of_range():
    with pytest.raises(DataError):
        InteractionSet(
            num_users=1,
            num_items=1,
            pairs=np.array([[0, 5]]),
            user_ids=("a",),
            item_ids=("x",),
        ).validate()
