import numpy as np
import pytest

from assistlearn import errors as err
from assistlearn.core import (FeaturePartition, LocalModule, TaskLabels,
                              align, derive_seed, id_frame, vertical_split)
from assistlearn.learners import LearnerSpec


def _part(ids, rows, names):
    return FeaturePartition(ids=tuple(ids), features=np.array(rows, float),
                            feature_names=tuple(names))


def test_derive_seed_is_deterministic_and_sensitive():
    assert derive_seed("task", "mod", 3) == derive_seed("task", "mod", 3)
    assert derive_seed("task", "mod", 3) != derive_seed("task", "mod", 4)
    assert derive_seed("a", "bc") != derive_seed("ab", "c")
    s = derive_seed("anything", 123)
    assert 0 <= s < 2 ** 63


def test_partition_basic_accessors():
    p = _part(["b", "a"], [[1.0, 2.0], [3.0, 4.0]], ["u", "v"])
    assert p.n_rows == 2 and p.n_cols == 2
    assert list(p.rows_for(["a", "b"])) == [1, 0]
    assert p.rows_for(x for x in "ba").dtype == np.intp
    assert p.rows_for([]).shape == (0,)
    with pytest.raises(err.MissingId, match="'zzz'"):
        p.rows_for(["a", "zzz", "yyy"])


def test_lookups_match_per_element_reference():
    ids = [f"s{i:03d}" for i in range(200)]
    rng = np.random.default_rng(3)
    p = _part(ids, rng.standard_normal((200, 1)), ["u"])
    lab = TaskLabels(ids=tuple(ids), values=rng.standard_normal(200))
    query = [ids[i] for i in rng.permutation(200)[:120]]
    rows = {s: r for r, s in enumerate(ids)}
    label = dict(zip(ids, lab.values.tolist()))
    assert p.rows_for(query).tolist() == [rows[s] for s in query]
    assert lab.lookup(query).tolist() == [label[s] for s in query]
    for bad in (query[:5] + ["zz"] + query[5:] + ["yy"], ["zz"]):
        with pytest.raises(err.MissingId, match="'zz'"):
            p.rows_for(bad)
        with pytest.raises(err.MissingId, match="'zz'"):
            lab.lookup(bad)


def test_partition_is_immutable():
    p = _part(["a"], [[1.0]], ["u"])
    with pytest.raises(ValueError):
        p.features[0, 0] = 9.0


def test_partition_validation():
    with pytest.raises(err.DuplicateId):
        _part(["a", "a"], [[1.0], [2.0]], ["u"])
    with pytest.raises(ValueError):
        _part(["a"], [1.0], ["u"])                 # 1-D features
    with pytest.raises(ValueError):
        _part(["a", "b"], [[1.0]], ["u"])          # row count mismatch
    with pytest.raises(ValueError):
        _part(["a"], [[1.0, 2.0]], ["u"])          # name count mismatch
    with pytest.raises(ValueError):
        _part(["a"], [[1.0, 2.0]], ["u", "u"])     # duplicate names
    with pytest.raises(ValueError):
        _part(["a"], [[np.nan]], ["u"])
    with pytest.raises(ValueError):
        _part([""], [[1.0]], ["u"])


def test_labels_lookup_and_validation():
    lab = TaskLabels(ids=("a", "b", "c"), values=np.array([1.0, 2.0, 3.0]))
    assert lab.lookup(["c", "a"]).tolist() == [3.0, 1.0]
    assert lab.lookup(()).shape == (0,)
    with pytest.raises(err.MissingId, match="'nope'"):
        lab.lookup(["a", "nope", "other"])
    with pytest.raises(err.DuplicateId):
        TaskLabels(ids=("a", "a"), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TaskLabels(ids=("a",), values=np.array([[1.0]]))
    with pytest.raises(ValueError):
        TaskLabels(ids=("a",), values=np.array([np.inf]))


class _StrLike(str):
    def __str__(self):
        return "via-str-" + str.__str__(self)


def _ref_ids(ids):
    """The per-element reference for the C-level passes: the ids as plain
    strs with the str subclass's own text, whether any id breaks the frame
    contract (not a str, empty, a newline, not UTF-8) and whether any
    repeats."""
    def bad(i):
        if not isinstance(i, str) or not i or "\n" in i:
            return True
        try:
            i.encode("utf-8")
        except UnicodeEncodeError:
            return True
        return False
    if any(bad(i) for i in ids):
        return None, True, False
    ids = tuple(i.encode("utf-8").decode("utf-8") for i in ids)
    return ids, False, len(set(ids)) != len(ids)


@pytest.mark.parametrize("ids", [
    ("a", "b", "c"),
    ["a", "b", "c"],
    (3, 1, 2),
    (1, "1"),
    ("a", 2.5, None),
    (np.str_("a"), np.str_("b")),
    (_StrLike("a"), _StrLike("b")),
    (_StrLike("a"), "via-str-a"),
    ("a", "", "b"),
    ("", "", "a"),
    ("a", "b", "a"),
    (True, "True"),
    (),
    ("a\nb", "c"),
    ("a", "b\n"),
    ("\ud800",),
    ("\u00e9", "\u4e2d", "\U0001f600"),
])
def test_id_validation_matches_per_element_reference(ids):
    expect, bad, repeated = _ref_ids(ids)
    n = len(ids)
    vals = np.arange(float(n))
    make_part = lambda: FeaturePartition(  # noqa: E731
        ids=ids, features=vals.reshape(n, 1), feature_names=("u",))
    make_labels = lambda: TaskLabels(ids=ids, values=vals)  # noqa: E731
    if bad:
        for make in (make_part, make_labels):
            with pytest.raises(ValueError, match="sample id"):
                make()
        return
    if repeated:
        with pytest.raises(err.DuplicateId, match="in labels"):
            make_labels()
        with pytest.raises(err.DuplicateId, match="in partition"):
            make_part()
        return
    lab = make_labels()
    assert lab.ids == expect and all(type(i) is str for i in lab.ids)
    assert lab.lookup(expect).tolist() == vals.tolist()
    part = make_part()
    assert part.ids == expect and all(type(i) is str for i in part.ids)
    assert part.rows_for(expect).tolist() == list(range(n))


def test_id_frame_joins_the_ids_with_newlines_in_utf8():
    assert id_frame(["a", "b\u00e9"]) == "a\nb\u00e9".encode("utf-8")
    assert id_frame([]) == b"" and id_frame(("x",)) == b"x"
    for bad in ([""], ["a", ""], ["a\nb"], [1], ["\udc80"]):
        with pytest.raises(ValueError):
            id_frame(bad)


def test_align_accepts_plain_id_sequences_and_copies():
    p = _part(["a", "b"], [[1.0], [2.0]], ["u"])
    got = align(p, ["b", "a", "b"])
    assert got[:, 0].tolist() == [2.0, 1.0, 2.0]
    got[0, 0] = 99.0
    assert p.features[1, 0] == 2.0


def test_vertical_split_orders_and_errors():
    full = _part(["a", "b"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                 ["u", "v", "w"])
    parts = vertical_split(full, [["w", "u"], ["v"]])
    assert parts[0].feature_names == ("w", "u")   # sequence order kept
    assert parts[0].features[0].tolist() == [3.0, 1.0]
    assert parts[1].feature_names == ("v",)
    sets = vertical_split(full, [{"w", "u"}, ["v"]])
    assert sets[0].feature_names == ("u", "w")    # sets come out sorted
    with pytest.raises(err.UnknownColumn):
        vertical_split(full, [["u", "zzz"]])
    with pytest.raises(err.OverlappingGroups):
        vertical_split(full, [["u", "v"], ["v"]])


def test_vertical_split_allows_empty_group():
    full = _part(["a"], [[1.0, 2.0]], ["u", "v"])
    parts = vertical_split(full, [["u", "v"], []])
    assert parts[1].n_cols == 0
    assert parts[1].n_rows == 1


def test_module_store_write_once():
    p = _part(["a"], [[1.0]], ["u"])
    mod = LocalModule("m", p, LearnerSpec("least_squares"))
    mod.record_model("t", 1, "model-object")
    assert mod.stored_model("t", 1) == "model-object"
    with pytest.raises(err.StorageConflict):
        mod.record_model("t", 1, "other")
    with pytest.raises(err.UnknownRound):
        mod.stored_model("t", 2)
