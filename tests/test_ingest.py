"""Tests for parsing, activity filtering, splitting, and the canonical format."""

import builtins
import hashlib

import numpy as np
import pytest
from helpers import reference_serialize

from waveletcf.errors import DataError
from waveletcf.ingest import (
    InteractionSet,
    SplitSpec,
    canonical_header,
    dataset_hash,
    filter_by_activity,
    load_canonical,
    load_interactions,
    _serialize,
    persist,
    split,
)


def test_load_three_line_tsv(tmp_path):
    p = tmp_path / "log.tsv"
    p.write_text("u1\ti1\nu1\ti2\nu2\ti1\n")
    rows = load_interactions(p)
    assert len(rows) == 3
    assert rows[0] == ("u1", "i1")
    assert rows[2][1] == "i1"


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("")
    assert load_interactions(p) == []


def test_load_one_column_row_errors_with_line_number(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("u1\n")
    with pytest.raises(DataError, match="line 1"):
        load_interactions(p)


def test_load_csv_with_rating_and_timestamp(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text("# comment\nu1,i1,4.0,100\nu2,i2,,200\n")
    assert load_interactions(p) == [("u1", "i1"), ("u2", "i2")]


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


def test_filter_thresholds_vacuous():
    data = filter_by_activity([("a", "x"), ("a", "y"), ("b", "x")], 1, 1)
    assert data.num_users == 2 and data.num_items == 2
    assert data.num_pairs == 3


def test_filter_cascade_to_empty():
    with pytest.raises(DataError, match="fully filtered"):
        filter_by_activity([("a", "x"), ("a", "y"), ("b", "x")], 2, 2)


def test_filter_collapses_duplicates():
    data = filter_by_activity([("a", "x"), ("a", "x"), ("a", "y")], 1, 1)
    assert data.num_pairs == 2


def test_filter_idempotent():
    rng = np.random.default_rng(0)
    rows = [(f"u{rng.integers(30)}", f"i{rng.integers(40)}") for _ in range(400)]
    once = filter_by_activity(rows, 3, 3)
    again = filter_by_activity(
        [(once.user_ids[u], once.item_ids[i]) for u, i in once.pairs], 3, 3
    )
    assert once.num_users == again.num_users
    assert once.num_items == again.num_items
    assert once.num_pairs == again.num_pairs


def test_filter_first_appearance_order():
    data = filter_by_activity([("b", "y"), ("a", "x"), ("b", "x")], 1, 1)
    assert data.user_ids == ("b", "a")
    assert data.item_ids == ("y", "x")
    assert data.user_index == {"b": 0, "a": 1}


def grid_dataset(num_users=12, num_items=9, degree=4, seed=5):
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(num_users):
        for i in rng.choice(num_items, size=degree, replace=False):
            rows.append((f"u{u}", f"i{int(i)}"))
    return filter_by_activity(rows, 1, 1)


def test_split_exact_ratio():
    # five users sharing one catalog so every item keeps train coverage
    # without repair promotions that would distort the 8/2 ratio
    rows = [(f"u{u}", f"i{j}") for u in range(5) for j in range(10)]
    data = filter_by_activity(rows, 1, 1)
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
    data = filter_by_activity(rows, 1, 1)
    train, test = split(data, SplitSpec(seed=0))
    solo = data.user_index["solo"]
    assert np.count_nonzero(train.pairs[:, 0] == solo) == 1
    assert np.count_nonzero(test.pairs[:, 0] == solo) == 0


def test_split_cap_retains_cap_items():
    rows = [("u", f"i{j}") for j in range(10)] + [("v", f"i{j}") for j in range(10)]
    data = filter_by_activity(rows, 1, 1)
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


def test_split_rejects_bad_fraction():
    with pytest.raises(DataError):
        SplitSpec(train_fraction=1.0)
    with pytest.raises(DataError):
        SplitSpec(train_fraction=0.0)


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


def test_malformed_header_counts_error(tmp_path):
    p = tmp_path / "data.txt"
    persist(grid_dataset(), p)
    head, body = p.read_text().split("\n", 1)
    fields = head.split(" ")
    fields[3] = "x9"
    p.write_text(" ".join(fields) + "\n" + body)
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
    with pytest.raises(OSError):
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
def test_writer_matches_per_pair_oracle(pairs):
    data = writer_case(pairs)
    for seed in (0, 42):
        assert _serialize(data, seed) == reference_serialize(data, seed)


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
    expected = reference_serialize(data, seed=3)
    assert _serialize(data, 3) == expected
    oracle_hash = hashlib.sha256(reference_serialize(data, 0)).hexdigest()
    assert dataset_hash(data) == oracle_hash
    p = tmp_path / "data.txt"
    persist(data, p, seed=3)
    assert p.read_bytes() == expected


@pytest.mark.parametrize(
    "order", ["sorted", "reversed", "shuffled", "duplicates", "single", "empty"]
)
def test_interaction_set_sorts_only_a_copy(order):
    rng = np.random.default_rng(4)
    pairs = np.unique(rng.integers(0, 9, (60, 2)), axis=0)
    given = {
        "sorted": pairs,
        "reversed": pairs[::-1],
        "shuffled": rng.permutation(pairs),
        "duplicates": rng.permutation(np.vstack((pairs, pairs[::3]))),
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
    core = filter_by_activity(rows, 2, 2)
    full = filter_by_activity(rows, 1, 1)
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
