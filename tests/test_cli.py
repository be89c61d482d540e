import itertools
import json

import numpy as np
import pytest

from pvsmooth import cli
from pvsmooth.projections import project_simplex


def make_config(**overrides):
    cfg = {
        "problem": "lasso",
        "n": 5,
        "N": 8,
        "alpha": 1.0 / 3.0,
        "C": 0.25,
        "lambda": 0.5,
        "max_iter": 300,
        "stop_step_norm": 0.0,
        "seed": 7,
    }
    cfg.update(overrides)
    return {k: v for k, v in cfg.items() if v is not None}


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(make_config(**overrides)))
    return str(path)


def read_trace(path):
    lines = path.read_text().splitlines()
    assert lines[0] == cli.TRACE_HEADER
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_load_config_defaults():
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.json")
        with open(path, "w") as fh:
            json.dump(make_config(), fh)
        cfg = cli.load_config(path)
    assert cfg["formulation"] == "direct"
    assert cfg["algorithm"] == "pvs"
    assert cfg["radius"] == 1.0
    assert cfg["R"] is None
    assert cfg["trace_file"] == "trace.csv"
    assert cfg["summary_file"] == "summary.json"


def test_load_config_rejects_unknown_fields(tmp_path):
    assert cli.main(["solve", "--config",
                     write_config(tmp_path, typo_field=1)]) == 2


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["solve", "--config", str(path)]) == 2


def test_load_config_rejects_missing_field(tmp_path):
    assert cli.main(["solve", "--config", write_config(tmp_path, C=None)]) == 2


def test_load_config_rejects_bad_enum_and_range(tmp_path):
    assert cli.main(["solve", "--config",
                     write_config(tmp_path, problem="qp")]) == 2
    assert cli.main(["solve", "--config",
                     write_config(tmp_path, alpha=1.5)]) == 2
    assert cli.main(["solve", "--config",
                     write_config(tmp_path, max_iter=2.5)]) == 2


@pytest.mark.parametrize("overrides", [
    {"C": 0}, {"C": -1}, {"alpha": 0}, {"stop_step_norm": -1}, {"max_iter": -1},
    {"algorithm": "pvs-epochs", "epsilon": -1},
    {"problem": "lasso", "lambda": 0},
    {"problem": "dro", "n": 3, "N": 2, "lambda": 0},
    {"problem": "max-dispersion", "n": 3, "N": 2, "lambda": 0},
])
def test_solve_rejects_values_out_of_range_for_solver_or_builder(tmp_path, overrides):
    # the solver config and the builders own these ranges; the CLI still
    # exits 2 on them
    assert cli.main(["solve", "--config", write_config(tmp_path, **overrides),
                     "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "trace.csv").exists()


def test_solve_rejects_non_finite_constraint_matrix(tmp_path):
    # KernelProjector owns the finiteness of R; json.dumps writes NaN
    path = write_config(tmp_path, R=[[1.0, float("nan"), 0.0, 0.0, 0.0]])
    assert "NaN" in (tmp_path / "cfg.json").read_text()
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == 2


def test_load_config_rejects_bad_constraint_rows(tmp_path):
    assert cli.main(["solve", "--config",
                     write_config(tmp_path, R=[[1.0, 1.0]])]) == 2
    assert cli.main(["solve", "--config",
                     write_config(tmp_path, R="ones")]) == 2


def test_load_config_epochs_needs_epsilon(tmp_path):
    assert cli.main(["solve", "--config",
                     write_config(tmp_path, algorithm="pvs-epochs")]) == 2


def test_solve_rejects_incompatible_schedule_constant(tmp_path):
    # the dispersion g is 2-weakly convex, so C=1.0 violates 2*rho*C <= 1
    path = write_config(tmp_path, problem="max-dispersion", n=3, N=2,
                        C=1.0, radius=1.0, **{"lambda": 100.0})
    assert cli.main(["solve", "--config", path]) == 2


# ---------------------------------------------------------------------------
# solve round trips
# ---------------------------------------------------------------------------

def test_solve_zero_iterations_single_row(tmp_path):
    path = write_config(tmp_path, max_iter=0)
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == 0
    data = read_trace(tmp_path / "trace.csv")
    assert data.shape[0] == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["iterations"] == 0
    assert summary["stop_reason"] == "max_iter"


def test_solve_trace_and_summary_contents(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == 0
    data = read_trace(tmp_path / "trace.csv")
    assert data.shape == (301, 7)
    k = data[:, 0]
    assert np.array_equal(k, np.arange(1, 302))
    assert np.all(np.isfinite(data))
    assert np.all(data[:, 6] == 0.0)  # elapsed column zeroed for determinism

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {
        "final_objective", "iterations", "stop_reason", "elapsed_s", "bounds_ok",
    }
    assert summary["iterations"] == 300
    assert summary["stop_reason"] == "max_iter"
    assert summary["elapsed_s"] > 0.0
    assert np.isfinite(summary["final_objective"])
    assert summary["bounds_ok"] is True


def test_solve_trace_objective_descends_up_to_smoothing_correction(tmp_path):
    path = write_config(tmp_path)
    cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)])
    data = read_trace(tmp_path / "trace.csv")
    mu, gamma, obj, pgn = data[:, 1], data[:, 2], data[:, 3], data[:, 4]
    lg = 0.5 * np.sqrt(5.0)  # lam * sqrt(n) for the l1 regularizer
    rhs = obj[:-1] - 0.5 * gamma[:-1] * pgn[:-1] ** 2 + (mu[:-1] - mu[1:]) * lg**2
    assert np.all(obj[1:] <= rhs + 1e-8)


def test_solve_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    path = write_config(tmp_path)
    assert cli.main(["solve", "--config", path, "--out-dir", str(a)]) == 0
    assert cli.main(["solve", "--config", path, "--out-dir", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_solve_seeded_dispersion_experiment(tmp_path):
    # n=3, N=10, alpha=1/3, C=1/4, r=1, lambda=100 on ker(1,1,1); the product
    # formulation runs to the 1e-5 step rule in a few thousand iterations.
    path = write_config(
        tmp_path, problem="max-dispersion", formulation="product",
        n=3, N=10, radius=1.0, R=[[1.0, 1.0, 1.0]], **{"lambda": 100.0},
        max_iter=200000, stop_step_norm=1e-5, seed=42,
    )
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "step_norm"
    assert summary["iterations"] > 100
    assert np.isfinite(summary["final_objective"])


def test_solve_epoch_budget_failure_keeps_partial_trace(tmp_path):
    path = write_config(tmp_path, algorithm="pvs-epochs", epsilon=1e-9,
                        max_iter=10)
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == 3
    data = read_trace(tmp_path / "trace.csv")
    assert data.shape[0] == 11
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "budget_exhausted"


def test_solve_inner_failure_keeps_partial_trace(tmp_path, monkeypatch):
    # an inner prox budget too small for the direct dispersion run: the
    # weight iteration fails partway and the partial trace is still written.
    # A wrapped projector keeps plain FISTA, which needs the budget; the
    # exact finish on project_simplex itself ends every call within it.
    def capped(inst):
        problem = build_direct(inst)
        problem.g.project_ambiguity = lambda c: project_simplex(c)
        problem.g.max_iter = 50
        return problem

    build_direct = cli.build_max_dispersion_direct
    monkeypatch.setattr(cli, "build_max_dispersion_direct", capped)
    path = write_config(
        tmp_path, problem="max-dispersion", formulation="direct", n=3, N=10,
        R=[[1.0, 1.0, 1.0]], **{"lambda": 100.0}, max_iter=60, seed=47,
    )
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == 3
    data = read_trace(tmp_path / "trace.csv")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "component_error"
    assert 0 < summary["iterations"] == data.shape[0] < 60
    assert np.isfinite(summary["final_objective"])


# ---------------------------------------------------------------------------
# verify batteries
# ---------------------------------------------------------------------------

def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "nonsense"])
    assert err.value.code == 2


def test_verify_fast_suites_pass(capsys):
    assert cli.main(["verify", "projections"]) == 0
    assert cli.main(["verify", "penalty"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_verify_prox_battery_passes(capsys):
    assert cli.main(["verify", "prox"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "sup-quadratic prox vs grid search" in out
    assert "affine dual gap, 10 scenarios in R^3" in out
    assert "affine support spread, 10 scenarios in R^3" in out
    assert "affine prox vs FISTA, 10 scenarios in R^3" in out


def test_verify_bounds_passes(capsys):
    assert cli.main(["verify", "bounds"]) == 0
    out = capsys.readouterr().out
    assert "stationarity decay bounds" in out and "PASS" in out
    assert "norm bound brackets |A|" in out


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def test_gen_is_deterministic_and_bounded(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--kind", "max-dispersion", "--n", "3", "--N", "10",
            "--seed", "5"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    anchors = np.asarray(payload["anchors"])
    assert anchors.shape == (10, 3)
    assert anchors.min() >= 0.0 and anchors.max() <= 2.0


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--N", "-2"), ("--N", "0"), ("--n", "0"),
])
@pytest.mark.parametrize("kind", ["max-dispersion", "lasso"])
def test_gen_rejects_a_bad_shape_or_seed_and_writes_nothing(tmp_path, capsys, kind, flag,
                                                            value):
    # the seeded generators own n >= 1, N >= 1 and seed >= 0
    args = {"--kind": kind, "--n": "3", "--N": "4", "--seed": "5", flag: value}
    out = tmp_path / "g.json"
    assert cli.main(["gen", *itertools.chain(*args.items()), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [{"seed": -1}, {"n": 0}, {"N": 0}, {"N": -2}])
def test_solve_rejects_a_bad_shape_or_seed(tmp_path, capsys, overrides):
    assert cli.main(["solve", "--config", write_config(tmp_path, **overrides),
                     "--out-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_gen_single_anchor(tmp_path):
    out = tmp_path / "one.json"
    assert cli.main(["gen", "--kind", "max-dispersion", "--n", "4", "--N", "1",
                     "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["anchors"]) == 1


def test_gen_other_kinds(tmp_path):
    out = tmp_path / "g.json"
    cli.main(["gen", "--kind", "dro-affine", "--n", "2", "--N", "3",
              "--seed", "1", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert np.asarray(payload["a_rows"]).shape == (3, 2)
    assert len(payload["offsets"]) == 3

    cli.main(["gen", "--kind", "lasso", "--n", "4", "--N", "6",
              "--seed", "1", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert np.asarray(payload["design"]).shape == (6, 4)
    assert len(payload["target"]) == 6


# (problem, formulation) -> (gen kind, pairs of (built array, gen array))
GEN_READS = {
    ("max-dispersion", "direct"): (
        "max-dispersion", lambda p, d: [(p.g.a_rows, 2.0 * d["anchors"])]),
    ("max-dispersion", "product"): (
        "max-dispersion", lambda p, d: [(p.g.centers, d["anchors"])]),
    ("dro", "direct"): (
        "dro-affine", lambda p, d: [(p.g.a_rows, d["a_rows"]), (p.g.offsets, d["offsets"])]),
    ("dro", "product"): (
        "dro-quadratic", lambda p, d: [(p.g.centers, d["centers"])]),
    ("lasso", "direct"): (
        "lasso", lambda p, d: [(p.h.design, d["design"]), (p.h.target, d["target"])]),
}


@pytest.mark.parametrize("shape", sorted(GEN_READS), ids="-".join)
def test_gen_writes_the_data_solve_builds_from(tmp_path, shape):
    kind, read = GEN_READS[shape]
    out = tmp_path / "g.json"
    assert cli.main(["gen", "--kind", kind, "--n", "3", "--N", "4", "--seed", "11",
                     "--out", str(out)]) == 0
    data = {k: np.asarray(v) for k, v in json.loads(out.read_text()).items()}
    cfg = cli.load_config(write_config(
        tmp_path, problem=shape[0], formulation=shape[1], n=3, N=4, seed=11,
        **{"lambda": 10.0}))
    problem, _ = cli.build_from_config(cfg)
    for built, written in read(problem, data):
        assert np.array_equal(built, written)
