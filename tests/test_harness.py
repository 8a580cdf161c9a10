import dataclasses
import json

import numpy as np
import pytest

from assistlearn import errors as err
from assistlearn.data import SyntheticSpec, generate, save_csv
from assistlearn.harness import (ExperimentConfig, Report, compare_stacking,
                                 format_table, run_experiment,
                                 _strip_volatile)
from assistlearn.learners import LearnerSpec

BETA = (1.0, -2.0, 0.5, 3.0, -1.5, 2.0)


def _chain_raw(**kw):
    raw = {
        "name": "tiny",
        "seed": 0,
        "replications": 1,
        "mode": "residual_chain",
        "data": {"kind": "linear", "n_train": 80, "n_test": 40,
                 "coefficients": list(BETA), "correlation": 0.3},
        "groups": [["x1", "x2"], ["x3", "x4"], ["x5", "x6"]],
        "learners": "least_squares",
        "protocol": {"max_rounds": 3, "patience": 2},
    }
    raw.update(kw)
    return raw


def _nn_raw(**kw):
    raw = {
        "name": "tiny-nn",
        "seed": 1,
        "replications": 1,
        "mode": "split_network",
        "data": {"kind": "friedman1", "n_train": 80, "n_test": 40,
                 "noise_sd": 0.5},
        "groups": [["x1", "x2", "x3"], ["x4", "x5"]],
        "learners": {"kind": "dense_net",
                     "params": {"hidden": 8, "rate": 0.02, "batch": 16}},
        "protocol": {"max_rounds": 3, "patience": 3,
                     "holdout_fraction": 0.0},
    }
    raw.update(kw)
    return raw


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_from_dict_round_trips_through_to_dict():
    cfg = ExperimentConfig.from_dict(_chain_raw())
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert cfg.learners == (LearnerSpec("least_squares"),) * 3


def test_unknown_keys_are_rejected():
    with pytest.raises(ValueError, match="unknown keys"):
        ExperimentConfig.from_dict(_chain_raw(extra_knob=1))
    with pytest.raises(ValueError, match="protocol"):
        ExperimentConfig.from_dict(
            _chain_raw(protocol={"max_rounds": 3, "warmup": 9}))
    with pytest.raises(ValueError, match="data"):
        ExperimentConfig.from_dict(
            _chain_raw(data={"kind": "linear", "n_train": 10, "n_test": 5,
                             "coefficients": list(BETA), "rows": 3}))


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(_chain_raw(mode="broadcast"))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(_chain_raw(transport="carrier-pigeon"))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(_chain_raw(replications=0))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(_chain_raw(groups=[]))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(
            _chain_raw(learners=["least_squares", "ridge"]))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(_chain_raw(baselines=["solo", "psychic"]))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(
            _chain_raw(data={"kind": "mystery", "n_train": 1, "n_test": 1}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(
            _chain_raw(data={"kind": "csv"}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(
            _chain_raw(data={"kind": "linear", "n_train": 10}))


def test_split_network_config_constraints():
    with pytest.raises(ValueError, match="two groups"):
        ExperimentConfig.from_dict(
            _nn_raw(groups=[["x1"], ["x2"], ["x3"]]))
    with pytest.raises(ValueError, match="dense_net"):
        ExperimentConfig.from_dict(_nn_raw(learners="least_squares"))
    # one net: the second group's spec must be the first's
    for second in ("regression_tree", "dense_net:hidden=8,batch=8"):
        with pytest.raises(ValueError, match="same learner spec"):
            ExperimentConfig.from_dict(_nn_raw(
                learners=["dense_net:hidden=4,batch=16", second]))
    same = ExperimentConfig.from_dict(_nn_raw(
        learners=["dense_net:hidden=4,batch=16",
                  {"kind": "dense_net", "params": {"batch": 16, "hidden": 4}}]))
    assert same.learners[0] == same.learners[1]


def test_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_chain_raw()), encoding="utf-8")
    cfg = ExperimentConfig.from_json(path)
    assert cfg.name == "tiny"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        ExperimentConfig.from_json(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.from_json(lst)


def test_stacking_meta_spec_parsing():
    raw = _chain_raw(stacking={"meta": {"kind": "ridge",
                                        "params": {"lam": 0.5}},
                               "folds": 3})
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.meta_learner == LearnerSpec("ridge", {"lam": 0.5})
    assert cfg.folds == 3


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def test_chain_experiment_produces_a_full_report(tmp_path):
    cfg = ExperimentConfig.from_dict(
        _chain_raw(replications=2, baselines=["solo", "oracle", "stacking"]))
    report = run_experiment(cfg, out_dir=tmp_path)
    assert isinstance(report, Report)
    assert len(report.replications) == 2
    for rep in report.replications:
        assert 1 <= rep["chosen_round"] <= rep["stopped_round"] <= 3
        assert len(rep["rounds"]) == 3
        for row in rep["rounds"]:
            assert row["seconds"] >= 0.0
            assert np.isfinite(row["test_rmse"])
        assert set(rep["baselines"]) == {"solo", "oracle", "stacking"}
    summary = report.summary
    assert len(summary["rounds"]) == 3
    assert summary["final_test_rmse"]["se"] >= 0.0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "rounds.csv").exists()
    header = (tmp_path / "rounds.csv").read_text().splitlines()[0]
    assert header == ("replication,round,train_rmse,validation_rmse,"
                      "test_rmse,test_mad,seconds")
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["config"]["name"] == "tiny"
    assert "failed" not in parsed


def test_reports_are_deterministic_across_runs():
    cfg = ExperimentConfig.from_dict(_chain_raw(replications=2))
    h1 = run_experiment(cfg).determinism_hash()
    h2 = run_experiment(cfg).determinism_hash()
    assert h1 == h2
    h3 = run_experiment(dataclasses.replace(cfg, seed=9)).determinism_hash()
    assert h3 != h1


def test_tcp_transport_changes_nothing_numeric(connections):
    cfg = ExperimentConfig.from_dict(_chain_raw())
    inproc = run_experiment(cfg)
    tcp = run_experiment(dataclasses.replace(cfg, transport="tcp"))
    assert _strip_volatile(inproc.replications) \
        == _strip_volatile(tcp.replications)
    # one kept connection per assistant, each closed when the run ends
    assert len(connections) == 2
    assert all(conn.fileno() == -1 for conn in connections)


def test_single_group_runs_without_assistants():
    """With nobody to assist, the curve is flat from round 1 and matches
    the solo baseline exactly."""
    raw = _chain_raw(groups=[["x1", "x2", "x3", "x4", "x5", "x6"]],
                     protocol={"max_rounds": 3, "patience": 2,
                               "holdout_fraction": 0.0})
    cfg = ExperimentConfig.from_dict(raw)
    report = run_experiment(cfg)
    rep = report.replications[0]
    rmses = [row["test_rmse"] for row in rep["rounds"]]
    assert max(rmses) - min(rmses) <= 1e-10 * rmses[0]
    assert abs(rep["final"]["test_rmse"]
               - rep["baselines"]["solo"]["test_rmse"]) <= 1e-9
    # the pool is one module, so oracle == solo here too
    assert abs(rep["baselines"]["oracle"]["test_rmse"]
               - rep["baselines"]["solo"]["test_rmse"]) <= 1e-12


def test_nn_experiment_end_to_end(tmp_path):
    cfg = ExperimentConfig.from_dict(_nn_raw())
    report = run_experiment(cfg, out_dir=tmp_path)
    rep = report.replications[0]
    assert len(rep["rounds"]) == 3
    assert all(row["train_rmse"] is None for row in rep["rounds"])
    assert all(np.isfinite(row["test_rmse"]) for row in rep["rounds"])
    csv_lines = (tmp_path / "rounds.csv").read_text().splitlines()
    assert csv_lines[1].split(",")[2] == ""  # train_rmse column is empty
    assert rep["baselines"]["solo"]["test_rmse"] > 0.0


def test_csv_data_source(tmp_path):
    spec = SyntheticSpec(kind="linear", n=60, noise_sd=1.0, seed=4,
                         coefficients=BETA, correlation=0.0)
    part, labels = generate(spec)
    path = tmp_path / "table.csv"
    save_csv(path, part, labels)
    raw = _chain_raw(data={"kind": "csv", "path": str(path),
                           "train_fraction": 0.75})
    cfg = ExperimentConfig.from_dict(raw)
    rep = run_experiment(cfg).replications[0]
    assert rep["n_train"] == 45 and rep["n_test"] == 15


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_replication_leaves_a_marked_partial_report(tmp_path):
    raw = _nn_raw()
    raw["learners"] = {"kind": "dense_net",
                       "params": {"hidden": 8, "rate": 1e12, "batch": 16}}
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(err.NonFiniteLoss):
        run_experiment(cfg, out_dir=tmp_path)
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["failed"]["replication"] == 0
    assert parsed["failed"]["error"] == "NonFiniteLoss"
    assert parsed["replications"] == []


# ---------------------------------------------------------------------------
# stacking comparison
# ---------------------------------------------------------------------------

def test_compare_stacking_table_and_rendering(tmp_path):
    raw = _chain_raw(replications=2,
                     cells=[{"name": "LR", "al": "least_squares",
                             "base": "least_squares",
                             "meta": "least_squares"}])
    cfg = ExperimentConfig.from_dict(raw)
    table = compare_stacking(cfg, out_dir=tmp_path)
    assert [c["name"] for c in table["cells"]] == ["LR"]
    cell = table["cells"][0]
    assert len(cell["assisted"]["values"]) == 2
    assert len(cell["stacking"]["values"]) == 2
    assert cell["assisted"]["mean"] > 0.0
    text = format_table(table)
    assert "LR" in text and "assisted" in text and "stacking" in text
    assert (tmp_path / "stacking.json").exists()


def test_compare_stacking_requires_cells():
    cfg = ExperimentConfig.from_dict(_chain_raw())
    with pytest.raises(ValueError, match="cells"):
        compare_stacking(cfg)
    bad = ExperimentConfig.from_dict(
        _chain_raw(cells=[{"name": "x", "al": "least_squares",
                           "oops": "y"}]))
    with pytest.raises(ValueError, match="unknown keys"):
        compare_stacking(bad)
