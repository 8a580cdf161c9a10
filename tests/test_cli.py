import json
import subprocess
import sys

import numpy as np
import pytest

from assistlearn import cli
from assistlearn.cli import main
from assistlearn.data import load_csv, save_csv, SyntheticSpec, generate
from assistlearn.transport import Envelope, TcpEndpoint, serve_module
from assistlearn.core import LocalModule
from assistlearn.learners import LearnerSpec

CHAIN_CONFIG = {
    "name": "cli-tiny",
    "seed": 0,
    "replications": 1,
    "data": {"kind": "linear", "n_train": 60, "n_test": 30,
             "coefficients": [1.0, -2.0, 0.5, 3.0], "correlation": 0.2},
    "groups": [["x1", "x2"], ["x3", "x4"]],
    "learners": "least_squares",
    "protocol": {"max_rounds": 2, "patience": 2},
}


def _write_config(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def test_importing_the_cli_does_not_import_scipy():
    # scipy serves only fit_least_squares; importing it up front doubled the
    # start-up time and memory of every `assistlearn serve`
    import os
    from pathlib import Path
    import assistlearn
    src = str(Path(assistlearn.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, assistlearn.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_gen_writes_a_loadable_csv(tmp_path, capsys):
    out = tmp_path / "fr.csv"
    code = main(["gen", "--kind", "friedman1", "--n", "30",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    assert "wrote 30 rows" in capsys.readouterr().out
    part, labels = load_csv(out, "id", "y")
    assert part.n_rows == 30 and part.n_cols == 5
    assert np.all(np.isfinite(labels.values))


def test_gen_linear_needs_coefficients(tmp_path, capsys):
    code = main(["gen", "--kind", "linear", "--n", "10",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_run_executes_a_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, CHAIN_CONFIG)
    out_dir = tmp_path / "report"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "final test RMSE" in printed
    assert (out_dir / "report.json").exists()
    assert (out_dir / "rounds.csv").exists()


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "ghost.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_run_rejects_unknown_keys(tmp_path, capsys):
    body = dict(CHAIN_CONFIG)
    body["surprise"] = True
    assert main(["run", "--config", _write_config(tmp_path, body)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_run_rejects_a_non_integer_learner_count(tmp_path, capsys):
    body = {**CHAIN_CONFIG, "learners": "dense_net:hidden=16.0"}
    assert main(["run", "--config", _write_config(tmp_path, body)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "hidden must be an integer" in err
    body = {**CHAIN_CONFIG, "protocol": {"max_rounds": 2.5}}
    assert main(["run", "--config", _write_config(tmp_path, body)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "max_rounds must be an integer" in err


def test_compare_stacking_prints_a_table(tmp_path, capsys):
    body = dict(CHAIN_CONFIG)
    body["cells"] = [{"name": "LR", "al": "least_squares",
                      "base": "least_squares", "meta": "least_squares"}]
    cfg = _write_config(tmp_path, body)
    assert main(["compare-stacking", "--config", cfg,
                 "--out", str(tmp_path / "cmp")]) == 0
    printed = capsys.readouterr().out
    assert "LR" in printed and "stacking" in printed
    assert (tmp_path / "cmp" / "stacking.json").exists()


def test_serve_bind_conflict_is_a_transport_failure(tmp_path, capsys):
    spec = SyntheticSpec(kind="friedman1", n=10, seed=1)
    part, _ = generate(spec)
    csv = tmp_path / "part.csv"
    save_csv(csv, part)
    blocker = LocalModule("m", part, LearnerSpec("least_squares"))
    with serve_module(blocker) as server:
        code = main(["serve", "--partition", str(csv),
                     "--learner", "least_squares",
                     "--listen", f"{server.host}:{server.port}"])
    assert code == 3
    assert "transport failure" in capsys.readouterr().err


def test_serve_rejects_a_bad_listen_string(tmp_path, capsys):
    spec = SyntheticSpec(kind="friedman1", n=5, seed=2)
    part, _ = generate(spec)
    csv = tmp_path / "p.csv"
    save_csv(csv, part)
    code = main(["serve", "--partition", str(csv),
                 "--learner", "least_squares", "--listen", "nowhere"])
    assert code == 2
    assert "host:port" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_rejects_a_port_outside_the_range(port, monkeypatch, capsys):
    monkeypatch.setattr(cli, "serve_module",
                        lambda *args: pytest.fail("serve_module called"))
    code = main(["serve", "--partition", "unread.csv",
                 "--learner", "least_squares",
                 "--listen", f"127.0.0.1:{port}"])
    assert code == 2
    assert "0-65535" in capsys.readouterr().err


def test_serve_subprocess_answers_requests(tmp_path):
    spec = SyntheticSpec(kind="friedman1", n=20, seed=3)
    part, _ = generate(spec)
    csv = tmp_path / "module.csv"
    save_csv(csv, part)
    proc = subprocess.Popen(
        [sys.executable, "-m", "assistlearn.cli", "serve",
         "--partition", str(csv), "--learner", "least_squares",
         "--listen", "127.0.0.1:0", "--module-id", "worker"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = proc.stdout.readline()
        assert "serving module 'worker'" in banner
        port = int(banner.rsplit(":", 1)[1])
        env = Envelope(kind="FIT_REQUEST", task="t", round=1,
                       sender="alice", receiver="worker",
                       payload={"ids": list(part.ids),
                                "values": [0.0] * part.n_rows})
        with TcpEndpoint("127.0.0.1", port, "worker") as ep:
            reply = ep.request(env, timeout=10.0)
        assert reply.kind == "FIT_RESPONSE"
    finally:
        proc.terminate()
        proc.communicate(timeout=10.0)  # reads and closes both pipes
