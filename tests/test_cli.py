"""CLI end to end: configs, overrides, exit codes, file schemas."""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trotterlab
from trotterlab import cli
from trotterlab.cli import main
from trotterlab.sweep import ExperimentKind

RESONANCE_CONFIG = {
    "experiment": {
        "kind": "resonance_discrete",
        "swept": "phi",
        "grid": ["-pi", "pi", 41],
        "fixed": {
            "n_qubits": 2,
            "n_steps": 2,
            "bond_angles": ["pi/4"],
            "z_template": ["phi", "alpha"],
            "alpha": 0.0,
        },
        "master_seed": 3,
    },
    "output": {"path": "out.csv", "format": "csv"},
    "engine": {"backend": "auto", "threads": 1},
}
LOCALIZATION_CONFIG = {
    "experiment": {
        "kind": "localization",
        "swept": "R",
        "grid": [0, "pi/2", 2],
        "fixed": {"n_qubits": 4, "n_steps": 2, "bond_angle": "pi/4", "base_phi": "pi/2"},
    },
}
CONTINUOUS_CONFIG = {
    "experiment": {
        "kind": "resonance_continuous",
        "grid": [0, 1, 3],
        "fixed": {"couplings": [1.0], "potentials": ["V1", 0.0], "t": 1.0},
    }
}
CONVERGENCE_CONFIG = {
    "experiment": {
        "kind": "convergence",
        "grid": [10, 40, 3],
        "fixed": {"couplings": [0.5], "potentials": [1.0, -1.0], "t": 2.0},
    }
}


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_resonance_subcommand_writes_csv(tmp_path, capsys):
    cfg = dict(RESONANCE_CONFIG)
    out = tmp_path / "r.csv"
    code = main(["resonance", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    header = [line for line in text.splitlines() if not line.startswith("#")][0]
    assert header == "swept_value,series_id,probability"
    assert "# provenance:" in text
    assert '"master_seed": 3'.replace(" ", "") in text.replace(" ", "")


def test_identical_files_across_runs_and_threads(tmp_path):
    # --threads is ignored, so its legs are reruns; BLAS's thread count is
    # set at process start, so its runs at 1 and 2 threads are subprocesses
    cfg = write_config(tmp_path, RESONANCE_CONFIG)
    src = str(Path(trotterlab.__file__).parents[1])
    outs = []
    for i, (knob, threads) in enumerate(
        [("--threads", "1"), ("--threads", "1"), ("--threads", "3")]
        + [("OPENBLAS_NUM_THREADS", "1"), ("OPENBLAS_NUM_THREADS", "2")]
    ):
        out = tmp_path / f"{i}.csv"
        args = ["resonance", "--config", cfg, "--seed", "7", "--out", str(out)]
        if knob == "--threads":
            assert main([*args, knob, threads]) == 0
        else:
            env = dict(os.environ, PYTHONPATH=src, **{knob: threads})
            subprocess.run([sys.executable, "-m", "trotterlab.cli", *args], env=env, check=True)
        outs.append(out.read_bytes())
    assert all(out == outs[0] for out in outs[1:])


def test_seed_flag_changes_output_of_seeded_run(tmp_path):
    cfg = {
        "experiment": {
            "kind": "localization",
            "swept": "R",
            "grid": [0, "pi/2", 2],
            "fixed": {
                "n_qubits": 6,
                "n_steps": 8,
                "bond_angle": "pi/4",
                "base_phi": "pi/2",
                "profile_eta": 4,
            },
            "trials": 2,
        },
        "output": {"path": "loc.csv", "format": "csv"},
    }
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["localization", "--config", path, "--seed", "1", "--out", str(out1)]) == 0
    assert main(["localization", "--config", path, "--seed", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_localization_csv_schema_and_companions(tmp_path):
    cfg = {
        "experiment": {
            "kind": "localization",
            "swept": "R",
            "grid": [0, "pi/2", 2],
            "fixed": {
                "n_qubits": 6,
                "n_steps": 8,
                "bond_angle": "pi/4",
                "base_phi": "pi/2",
                "profile_eta": 4,
            },
            "trials": 2,
        },
        "output": {"path": str(tmp_path / "loc.csv"), "format": "csv"},
    }
    assert main(["localization", "--config", write_config(tmp_path, cfg)]) == 0
    main_lines = (tmp_path / "loc.csv").read_text().splitlines()
    header = [line for line in main_lines if not line.startswith("#")][0]
    assert header == "R,trial,ipr_ave"
    for i in (0, 1):
        ipr_file = tmp_path / f"loc_ipr_r{i}.csv"
        tail_file = tmp_path / f"loc_tail_r{i}.csv"
        prof_file = tmp_path / f"loc_profile_r{i}.csv"
        assert ipr_file.exists() and tail_file.exists() and prof_file.exists()
        assert "eta,ipr" in ipr_file.read_text()
        assert "eta,tail_prob" in tail_file.read_text()
        assert "qubit,probability" in prof_file.read_text()
        # 8 steps -> 8 eta rows; 6 qubits -> 6 profile rows
        assert sum(1 for l in ipr_file.read_text().splitlines() if l[:1].isdigit()) == 8
        assert sum(1 for l in prof_file.read_text().splitlines() if l[:1].isdigit()) == 6


@pytest.mark.parametrize("grid", [[0.3, 0.3, 3], [1.5, 0.0, 3]], ids=["constant", "descending"])
def test_localization_companions_follow_the_grid_index(tmp_path, grid):
    cfg = {
        "experiment": {
            "kind": "localization",
            "grid": grid,
            "fixed": {"n_qubits": 4, "n_steps": 12, "bond_angle": "pi/4", "base_phi": "pi/2"},
            "trials": 2,
        },
    }
    out = tmp_path / "loc.csv"
    assert main(["localization", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0

    def provenance(path):
        return json.loads(path.read_text().splitlines()[0].removeprefix("# provenance: "))

    values = [float(v) for v in np.linspace(*grid)]
    assert provenance(out)["r_index"] == {str(i): v for i, v in enumerate(values)}
    for i, v in enumerate(values):
        for kind in ("ipr", "tail", "profile"):
            assert provenance(tmp_path / f"loc_{kind}_r{i}.csv")["R"] == v
    assert not (tmp_path / "loc_tail_r3.csv").exists()


@pytest.mark.parametrize("n_steps, eta", [(5, 5), (12, 10)])
def test_profile_eta_defaults_to_step_ten_or_the_last_step(tmp_path, capsys, n_steps, eta):
    fixed = {"n_qubits": 4, "n_steps": n_steps, "bond_angle": "pi/4", "base_phi": "pi/2"}
    cfg = {"experiment": {"kind": "localization", "grid": [0, 1, 2], "fixed": fixed, "trials": 2}}
    out = tmp_path / "loc.json"
    path = write_config(tmp_path, cfg)
    assert main(["localization", "--config", path, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert [t["profile_eta"] for t in payload["traces"]] == [eta] * 4
    for row, trace in zip(payload["rows"], payload["traces"]):
        assert row["observables"]["tail_at_profile_eta"] == trace["tail_series"][eta - 1]
    # an explicit value outside [1, n_steps] still exits 2
    fixed["profile_eta"] = n_steps + 1
    assert main(["localization", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"profile_eta must be in [1, {n_steps}], got {n_steps + 1}" in capsys.readouterr().err


def test_json_format_is_faithful(tmp_path):
    cfg = dict(RESONANCE_CONFIG)
    out = tmp_path / "r.json"
    code = main(
        [
            "resonance",
            "--config",
            write_config(tmp_path, cfg),
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["provenance"]["kind"] == "resonance_discrete"
    assert payload["provenance"]["generator"] == "numpy-pcg64"
    assert len(payload["rows"]) == 41
    assert all(0 <= r["observables"]["probability"] <= 1 for r in payload["rows"])


def test_grid_override_flag(tmp_path):
    cfg = dict(RESONANCE_CONFIG)
    out = tmp_path / "r.json"
    code = main(
        [
            "resonance",
            "--config",
            write_config(tmp_path, cfg),
            "--out",
            str(out),
            "--format",
            "json",
            "--grid=-pi:pi:11",
        ]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["rows"]) == 11


@pytest.mark.parametrize("grid, count", [("-1:1:3", 3), ("-pi:pi:101", 101)])
def test_grid_override_takes_a_spaced_negative_start(tmp_path, grid, count):
    out = tmp_path / "r.json"
    argv = ["resonance", "--config", write_config(tmp_path, RESONANCE_CONFIG), "--out", str(out)]
    assert main([*argv, "--format", "json", "--grid", grid]) == 0
    assert len(json.loads(out.read_text())["rows"]) == count


def test_bare_trailing_grid_flag_exits_2(tmp_path):
    assert main(["resonance", "--config", write_config(tmp_path, RESONANCE_CONFIG), "--grid"]) == 2


def test_convergence_subcommand(tmp_path):
    cfg = {
        "experiment": {
            "kind": "convergence",
            "swept": "n_steps",
            "grid": [10, 40, 3],
            "fixed": {
                "couplings": [0.5],
                "potentials": [1.0, -1.0],
                "t": 2.0,
            },
        },
        "output": {"path": str(tmp_path / "conv.csv"), "format": "csv"},
    }
    assert main(["convergence", "--config", write_config(tmp_path, cfg)]) == 0
    lines = (tmp_path / "conv.csv").read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "n_steps,distance"


def test_crx_subcommand(tmp_path):
    cfg = {
        "experiment": {
            "swept": "phi",
            "grid": ["-pi", "pi", 15],
            "fixed": {
                "n_qubits": 3,
                "n_steps": 2,
                "bond_angles": ["pi/2", "pi/2"],
                "z_template": ["phi", "alpha", "-alpha"],
                "alpha": "pi/4",
            },
        },
        "output": {"path": str(tmp_path / "crx.csv")},
    }
    assert main(["crx", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "crx.csv").exists()


def test_subcommand_kind_mismatch_is_config_error(tmp_path):
    cfg = dict(RESONANCE_CONFIG)
    code = main(["localization", "--config", write_config(tmp_path, cfg)])
    assert code == 2


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["resonance", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["resonance", "--config", str(path)]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_figure_id_exits_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "9z"]) == 2


def test_figure_subcommand_writes_file(tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["figure", "2a4", "--out", str(out)]) == 0
    text = out.read_text()
    header = [line for line in text.splitlines() if not line.startswith("#")][0]
    assert header == "swept_value,series_id,probability"
    assert "V2=-pi/2" in text


@pytest.mark.parametrize(
    "figure_id, kind, labels, rows, traces",
    [
        ("3b", "resonance", ["alpha=-pi/1.5", "alpha=pi/4"], 315, 0),
        ("4a", "localization", ["R-grid"], 2, 2),
    ],
)
def test_figure_json_holds_every_series_at_any_thread_count(
    tmp_path, figure_id, kind, labels, rows, traces
):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"fig{threads}.json"
        argv = ["figure", figure_id, "--format", "json", "--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert sorted(payload) == ["figure_id", "kind", "series"]
    assert (payload["figure_id"], payload["kind"]) == (figure_id, kind)
    assert sorted(payload["series"]) == labels
    for series in payload["series"].values():
        assert sorted(series) == ["aggregates", "provenance", "rows", "traces"]
        assert (len(series["rows"]), len(series["traces"])) == (rows, traces)


def test_verify_subcommand_green(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "closed-form-n2" in out and "0 failed" in out


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--threads", "-5"], "--threads must be >= 1, got -5"),
        (["--threads", "0"], "--threads must be >= 1, got 0"),
    ],
)
def test_thread_count_below_1_exits_2(tmp_path, capsys, flag, message):
    out = tmp_path / "t.csv"
    cfg = write_config(tmp_path, RESONANCE_CONFIG)
    argv = ["resonance", "--config", cfg, "--out", str(out), *flag]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_threads_flag_starts_no_thread(tmp_path, monkeypatch):
    # --threads is accepted and ignored: even 3c's five N = 15 walks run on
    # the calling thread
    import threading

    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    out = tmp_path / "f.csv"
    assert main(["figure", "3c", "--threads", "2", "--out", str(out)]) == 0
    assert out.exists()


def test_figure_takes_no_grid_flag(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["figure", "2a4", "--grid", "0:1:5", "--out", str(out)]) == 2
    assert not out.exists()


def test_unwritable_output_path(tmp_path):
    cfg = write_config(tmp_path, RESONANCE_CONFIG)
    code = main(["resonance", "--config", cfg, "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 2


def test_file_name_too_long_exits_2_with_an_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, RESONANCE_CONFIG)
    out = tmp_path / ("x" * 300 + ".csv")  # longer than a file system's 255-byte name limit
    assert main(["resonance", "--config", cfg, "--out", str(out)]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_bad_kind_and_bad_family_are_config_errors(tmp_path):
    bad_kind = dict(RESONANCE_CONFIG)
    bad_kind["experiment"] = dict(bad_kind["experiment"], kind="bogus")
    assert main(["resonance", "--config", write_config(tmp_path, bad_kind)]) == 2

    bad_family = {
        "experiment": {
            "kind": "localization",
            "swept": "R",
            "grid": [0, 1, 2],
            "fixed": {
                "n_qubits": 4,
                "n_steps": 2,
                "gate_family": "zz",
                "bond_angle": 0.3,
                "base_phi": 0.1,
                "profile_eta": 1,
            },
            "trials": 1,
        },
        "output": {"path": str(tmp_path / "x.csv")},
    }
    assert main(["localization", "--config", write_config(tmp_path, bad_family)]) == 2

    bad_seed = dict(RESONANCE_CONFIG)
    bad_seed["experiment"] = dict(bad_seed["experiment"], master_seed="abc")
    assert main(["resonance", "--config", write_config(tmp_path, bad_seed)]) == 2


def test_verification_mode_backend_disagreement_exits_1(tmp_path, monkeypatch, capsys):
    import trotterlab.sweep as sweep

    real = sweep.occupation_stack
    monkeypatch.setattr(sweep, "occupation_stack", lambda amps: real(amps) + 1e-6)
    cfg = dict(RESONANCE_CONFIG, engine={"backend": "auto", "verification_mode": True})
    out = tmp_path / "v.csv"
    code = main(["resonance", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 1
    assert "backends disagree" in capsys.readouterr().err
    assert not out.exists()


def _with_experiment(base=RESONANCE_CONFIG, /, **fields):
    return dict(base, experiment=dict(base["experiment"], **fields))


def _with_fixed(base=RESONANCE_CONFIG, /, **fields):
    experiment = dict(base["experiment"])
    experiment["fixed"] = dict(experiment["fixed"], **fields)
    return dict(base, experiment=experiment)


def _subcommand(cfg) -> str:
    """The subcommand that runs ``cfg``'s experiment kind ("resonance" if it names none)."""
    try:
        kind = ExperimentKind(cfg["experiment"]["kind"])
    except (KeyError, TypeError, ValueError):
        return "resonance"
    return next(name for name, kinds in cli._SUBCOMMAND_KINDS.items() if kind in kinds)


@pytest.mark.parametrize(
    "cfg, message",
    [
        ([1, 2], "the config must be a JSON object"),
        ({"experiment": [1]}, "experiment must be a JSON object"),
        (dict(RESONANCE_CONFIG, engine=3), "engine must be a JSON object"),
        (_with_fixed(bond_angles="pi/4"), "bond_angles must be a list, got 'pi/4'"),
        (_with_fixed(z_template={"phi": 1}), "z_template must be a list"),
        (_with_fixed(n_qubits="two"), "n_qubits must be an integer"),
        (dict(RESONANCE_CONFIG, experiment=dict(RESONANCE_CONFIG["experiment"], grid=5)), "grid"),
        (
            dict(RESONANCE_CONFIG, experiment=dict(RESONANCE_CONFIG["experiment"], swept=["phi"])),
            "experiment.swept must be a string",
        ),
        (dict(RESONANCE_CONFIG, output={"path": 3}), "output.path must be a string"),
        (_with_fixed(target_qubit=0), "target_qubit must be in [1, 2], got 0"),
        (_with_fixed(target_qubit=9), "target_qubit must be in [1, 2], got 9"),
        (_with_fixed(CONTINUOUS_CONFIG, target_site=3), "target_site must be in [1, 2], got 3"),
        (_with_fixed(n_qubits=2.5), "n_qubits must be an integer, got 2.5"),
        (_with_fixed(n_qubits=True), "n_qubits must be an integer, got True"),
        (_with_fixed(n_steps="inf"), "n_steps must be an integer, got 'inf'"),
        (_with_experiment(master_seed="inf"), "experiment.master_seed must be an integer"),
        (_with_experiment(master_seed=True), "experiment.master_seed must be an integer"),
        (_with_experiment(trials="inf"), "experiment.trials must be an integer"),
        (_with_experiment(trials=2.5), "experiment.trials must be an integer, got 2.5"),
        (_with_experiment(grid=[0, 1, "inf"]), "grid count must be an integer"),
        (_with_experiment(grid="1:2"), "grid must be 'start:stop:count', got '1:2'"),
        (
            dict(RESONANCE_CONFIG, engine={"verification_mode": "false"}),
            "engine.verification_mode must be true or false, got 'false'",
        ),
        (_with_fixed(n_steps=0), "n_steps must be in [1, 51150], got 0"),
        (_with_fixed(bond_angles=["pi/4", 0.1]), "bond_angles has length 2, expected 1"),
        (
            dict(RESONANCE_CONFIG, experiment={"kind": "resonance_discrete"}),
            "experiment.grid is required",
        ),
        (_with_experiment(grid={"start": 0, "stop": 1, "count": 3}), "grid needs exactly"),
        (_with_fixed(CONTINUOUS_CONFIG, init_site=5), "init_site must be in [1, 2], got 5"),
        (_with_experiment(trials=2), "a resonance_discrete sweep takes trials = 1, got 2"),
        (
            _with_experiment(kind="crx_resonance", trials=2),
            "a crx_resonance sweep takes trials = 1, got 2",
        ),
        (
            _with_experiment(CONTINUOUS_CONFIG, trials=2),
            "a resonance_continuous sweep takes trials = 1, got 2",
        ),
        (
            _with_experiment(CONVERGENCE_CONFIG, trials=2),
            "a convergence sweep takes trials = 1, got 2",
        ),
        (
            _with_experiment(LOCALIZATION_CONFIG, grid=[0, 1e308, 2]),
            "disorder_radius 1e+308 overflow: |base_phi| + 2 * disorder_radius must be finite",
        ),
        (
            _with_fixed(
                _with_experiment(LOCALIZATION_CONFIG, grid=[0, 8e307, 2]),
                gate_family="crx",
                base_phi=1.7e308,
            ),
            "disorder_radius 8e+307 overflow: |base_phi| + 2 * disorder_radius must be finite",
        ),
        (_with_fixed(z_template=["phi"]), "z_template has length 1, expected 2"),
        (_with_experiment(grid=[-1e308, 1e308, 3]), "grid span from -1e+308 to 1e+308 overflows"),
        # oversized templates and z layers, each rejected before it is allocated
        (
            _with_fixed(_with_experiment(grid=["-pi", "pi", 2**19]), bond_angles=[0.1] * 5000),
            "bond_angles has length 5000, expected 1",
        ),
        (
            _with_fixed(
                _with_experiment(grid=["-pi", "pi", 2**20]),
                n_qubits=1000,
                n_steps=1,
                bond_angles=[0.1] * 999,
                z_template=["phi"] + [0.0] * 999,
            ),
            "n_qubits must be in [1, 2], got 1000",
        ),
        (
            _with_fixed(
                _with_experiment(CONTINUOUS_CONFIG, grid=[0, 1, 20000]),
                couplings=[1.0] * 99,
                potentials=["V1"] + [0.0] * 99,
            ),
            "potentials must have [2, 10] entries for 20000 grid points"
            " (at most 2097152 Hamiltonian entries), got 100",
        ),
        (
            _with_fixed(
                _with_experiment(LOCALIZATION_CONFIG, grid=[0, 1, 1024], trials=1024),
                n_qubits=1000,
                n_steps=1,
            ),
            "n_qubits must be in [1, 2], got 1000",
        ),
        (
            _with_experiment(CONVERGENCE_CONFIG, grid=[0, 40, 3]),
            "convergence grids need 0 < start < stop",
        ),
        (
            _with_experiment(CONVERGENCE_CONFIG, grid=[1, 3, 5]),
            "degenerate convergence ladder [1, 1, 2, 2, 3]",
        ),
        # a convergence ladder's rungs count against the entry cap like grid points
        (
            _with_fixed(CONVERGENCE_CONFIG, couplings=[0.5] * 999, potentials=[0.0] * 1000),
            "potentials must have [2, 836] entries for 3 grid points",
        ),
        # a JSON boolean is no angle, though Python counts bool as a number
        (_with_fixed(LOCALIZATION_CONFIG, bond_angle=True), "cannot parse angle True"),
        (_with_experiment(LOCALIZATION_CONFIG, grid=[True, 1, 2]), "cannot parse angle True"),
        # parsed, but too deep to echo into a provenance header
        (_with_fixed(x=json.loads("[" * 98 + "]" * 98)), "nests deeper than 100 levels"),
        # an integral float is an integer: 3.0 qubits need two bond angles
        (_with_fixed(n_qubits=3.0), "bond_angles has length 1, expected 2"),
        # the ladder [0, 1, 2, 4, 10] is increasing, but its first rung has no step
        (_with_experiment(CONVERGENCE_CONFIG, grid=[0.3, 10, 5]), "step counts must be >= 1"),
        # JSON integers beyond the float range, where an angle is read
        (_with_fixed(CONTINUOUS_CONFIG, t=10**400), "is not finite"),
        (_with_experiment(grid=[0, 10**400, 3]), "is not finite"),
        # |t| (max|V| + 2 max|J|) overflows: eigenphases and step angles would be inf or NaN
        (
            _with_fixed(CONTINUOUS_CONFIG, potentials=["V1", 10.0], t=1e308),
            "t 1e+308 overflows: |t| * (max|potential| + 2 max|coupling|) must be finite",
        ),
        (
            _with_fixed(CONVERGENCE_CONFIG, couplings=[1e300], potentials=[1e300, 0.0], t=1e10),
            "t 10000000000.0 overflows",
        ),
        (
            _with_experiment(CONVERGENCE_CONFIG, grid=[10, 1.7976931348623157e308, 3]),
            "convergence ladder from 10.0 to 1.7976931348623157e+308 overflows",
        ),
        # an angle error names its field and echoes at most 40 characters of the value
        (_with_fixed(CONTINUOUS_CONFIG, t=10**400), f"t: angle 1{'0' * 36}... is not finite"),
        (_with_fixed(CONTINUOUS_CONFIG, t="pi/0"), "t: cannot parse angle 'pi/0'"),
        (_with_experiment(grid=[0, 10**400, 3]), f"grid stop: angle 1{'0' * 36}... is not finite"),
        (_with_experiment(grid=["pi/0", 1, 3]), "grid start: cannot parse angle 'pi/0'"),
        (_with_fixed(LOCALIZATION_CONFIG, base_phi="pie"), "base_phi: cannot parse angle 'pie'"),
        (
            _with_fixed(LOCALIZATION_CONFIG, bond_angle="2pi/x"),
            "bond_angle: cannot parse angle '2pi/x'",
        ),
        (_with_fixed(z_template=["phi", "pi/0"]), "z_template: cannot parse angle 'pi/0'"),
        (_with_fixed(bond_angles=["x" * 400]), f"bond_angles: cannot parse angle '{'x' * 36}...\n"),
        # a chain of one site, and a coupling template of the wrong length
        (
            _with_fixed(CONTINUOUS_CONFIG, couplings=[], potentials=["V1"]),
            "potentials must have [2, 836] entries for 3 grid points",
        ),
        (
            _with_fixed(CONVERGENCE_CONFIG, couplings=[0.5, 0.5]),
            "couplings has length 2, expected 1",
        ),
    ],
)
def test_malformed_config_shape_exits_2_naming_the_field(
    tmp_path, capsys, monkeypatch, cfg, message
):
    import trotterlab.sweep as sweep

    def not_called(*args, **kwargs):
        raise AssertionError("a walker or the chain oracle ran")

    for name in ("dense_stack", "subspace_stack", "evolve_chains"):
        monkeypatch.setattr(sweep, name, not_called)
    out = tmp_path / "m.csv"
    argv = [_subcommand(cfg), "--config", write_config(tmp_path, cfg), "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        (_with_experiment(grid=[0, 1, 10**13]), "grid count must be in [2, 1048576], got 10000000000000"),
        (
            _with_experiment(LOCALIZATION_CONFIG, grid=[0, 1, 41], trials=10**13),
            "trials must be in [1, 25575] for 41 grid points",
        ),
    ],
)
def test_sweep_size_is_capped_before_the_sweep_runs(tmp_path, capsys, monkeypatch, cfg, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep was called")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    assert main([_subcommand(cfg), "--config", write_config(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, n, message",
    [
        ("xy", 1001, "n_qubits must be in [1, 1000], got 1001"),
        ("crx", 25, "n_qubits must be in [1, 24], got 25"),
        ("xy", 2, "n_qubits must be >= 3 for localization, got 2"),
    ],
)
def test_localization_n_qubits_is_capped_before_the_chain_is_built(
    tmp_path, capsys, monkeypatch, family, n, message
):
    import trotterlab.sweep as sweep

    def no_layer(*args, **kwargs):
        raise AssertionError("z layer realized for an oversized chain")

    monkeypatch.setattr(sweep, "realize_z_layer", no_layer)
    cfg = {
        "experiment": {
            "kind": "localization",
            "swept": "R",
            "grid": [0, "pi/2", 2],
            "fixed": {
                "n_qubits": n,
                "n_steps": 2,
                "gate_family": family,
                "bond_angle": "pi/4",
                "base_phi": "pi/2",
                "profile_eta": 1,
            },
            "trials": 1,
        },
        "output": {"path": str(tmp_path / "x.csv")},
    }
    assert main(["localization", "--config", write_config(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_localization_n_steps_is_capped_before_the_series_are_allocated(
    tmp_path, capsys, monkeypatch
):
    import trotterlab.sweep as sweep

    def no_rows(*args, **kwargs):
        raise AssertionError("a localization stack was walked")

    monkeypatch.setattr(sweep, "_localization_rows", no_rows)
    cfg = {
        "experiment": {
            "kind": "localization",
            "swept": "R",
            "grid": [0, "pi/2", 5],
            "fixed": {
                "n_qubits": 15,
                "n_steps": 10**13,
                "bond_angle": "pi/4",
                "base_phi": "pi/2",
                "profile_eta": 10,
            },
            "trials": 20,
        },
        "output": {"path": str(tmp_path / "x.csv")},
    }
    assert main(["localization", "--config", write_config(tmp_path, cfg)]) == 2
    assert "n_steps must be in [1, 20971], got 10000000000000" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "command, kind", [("resonance", "resonance_discrete"), ("crx", "crx_resonance")]
)
def test_walked_resonance_n_steps_is_capped_before_any_walk(
    tmp_path, capsys, monkeypatch, command, kind
):
    import trotterlab.sweep as sweep

    def no_z_layer(*args, **kwargs):
        raise AssertionError("a z layer was realized")

    monkeypatch.setattr(sweep, "realize_z_layer", no_z_layer)
    cfg = _with_experiment(kind=kind)
    cfg["experiment"]["grid"] = ["-pi", "pi", 3]
    cfg["experiment"]["fixed"] = dict(cfg["experiment"]["fixed"], n_steps=10**13)
    out = tmp_path / "x.csv"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "n_steps must be in [1, 699050], got 10000000000000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        (
            _with_experiment(
                _with_fixed(LOCALIZATION_CONFIG, profile_eta=5), grid=[0, 1, 64], trials=64
            ),
            "profile_eta must be in [1, 2], got 5",
        ),
        (_with_fixed(target_qubit=5), "target_qubit must be in [1, 2], got 5"),
    ],
    ids=["profile_eta", "target_qubit"],
)
def test_readout_field_is_read_before_any_z_layer_is_drawn(
    tmp_path, capsys, monkeypatch, cfg, message
):
    import trotterlab.sweep as sweep

    def not_yet(*args, **kwargs):
        raise AssertionError("a z layer was drawn or a template resolved")

    monkeypatch.setattr(sweep, "realize_z_layer", not_yet)
    monkeypatch.setattr(sweep, "_template_grid", not_yet)
    out = tmp_path / "x.csv"
    assert main([_subcommand(cfg), "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_removed_walker_settings_are_ignored(tmp_path, monkeypatch):
    # engine.backend, fixed.drop_final_z, engine.threads and TROTTERLAB_THREADS
    # are unread: the gate family picks the walker, every step applies its Rz
    # layer and every sweep walks on one thread
    def run(name, engine, fixed):
        cfg = {
            "experiment": {
                "kind": "localization",
                "swept": "R",
                "grid": [0, "pi/2", 2],
                "fixed": {
                    "n_qubits": 6,
                    "n_steps": 8,
                    "bond_angle": "pi/4",
                    "base_phi": "pi/2",
                    "profile_eta": 4,
                    **fixed,
                },
                "trials": 2,
            },
            "output": {"path": str(tmp_path / name / "loc.csv")},
            "engine": engine,
        }
        (tmp_path / name).mkdir()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["localization", "--config", str(path)]) == 0
        return {f.name: f.read_text() for f in sorted((tmp_path / name).iterdir())}

    def data_lines(files):  # a fixed key is echoed in the provenance headers
        return {
            name: [line for line in text.splitlines() if not line.startswith("#")]
            for name, text in files.items()
        }

    plain = run("plain", {}, {})
    assert len(plain) == 7  # the main CSV and three companions per grid point
    old = run("old", {"backend": "dense"}, {"drop_final_z": False})
    assert data_lines(old) == data_lines(plain)
    for i, threads in enumerate([-3, 10**400, "x", 2]):
        assert run(f"threads{i}", {"threads": threads}, {}) == plain
    monkeypatch.setenv("TROTTERLAB_THREADS", "banana")
    assert run("env", {}, {}) == plain


def test_output_format_is_checked_before_the_sweep_runs(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep was called")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    cfg = dict(RESONANCE_CONFIG, output={"path": str(tmp_path / "x.xml"), "format": "xml"})
    assert main(["resonance", "--config", write_config(tmp_path, cfg)]) == 2
    assert "output.format must be 'csv' or 'json', got 'xml'" in capsys.readouterr().err
    assert not (tmp_path / "x.xml").exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        (
            {
                "experiment": {
                    "kind": "resonance_continuous",
                    "grid": [0, 1, 3],
                    "fixed": {"couplings": 1.0, "potentials": ["V1", 0.0], "t": 1.0},
                }
            },
            "couplings must be a list",
        ),
        (
            {
                "experiment": {
                    "kind": "resonance_continuous",
                    "grid": [0, 1, 3],
                    "fixed": {"couplings": [1.0], "potentials": "V1", "t": 1.0},
                }
            },
            "potentials must be a list",
        ),
    ],
)
def test_chain_fields_must_be_lists(tmp_path, capsys, cfg, message):
    out = tmp_path / "c.csv"
    assert main(["resonance", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-1e400"])
def test_non_finite_angle_exits_2_without_writing(tmp_path, capsys, bad):
    out = tmp_path / "nan.csv"
    cfg = _with_fixed(z_template=["phi", bad])
    assert main(["resonance", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_json_number_exits_2(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_with_fixed(alpha=float("nan"))))  # writes a bare NaN token
    out = tmp_path / "n.csv"
    assert main(["resonance", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_package_import_and_peak_finding_load_no_scipy():
    code = (
        "import importlib, pkgutil, sys, numpy as np, trotterlab\n"
        "for m in pkgutil.iter_modules(trotterlab.__path__):\n"
        "    importlib.import_module('trotterlab.' + m.name)\n"
        "from trotterlab.analytics import Curve, find_peaks\n"
        "print(len(find_peaks(Curve(np.arange(5.0), np.array([0, 0.5, 0.1, 0.6, 0])))))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(trotterlab.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert run.stdout.split("\n")[:2] == ["2", "[]"]


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"experiment": {"swept": "\xff"}}', "is not valid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100000 + b"]" * 100000, "nests deeper than 100 levels"),
        # standard JSON has no non-finite number; an ignored key must not echo one
        (b'{"experiment": {"fixed": {"note": 1e400}}}', "holds the non-finite number 1e400"),
        (b'{"experiment": {"fixed": {"note": NaN}}}', "holds the non-finite number NaN"),
        (b'{"output": {"x": [-Infinity]}}', "holds the non-finite number -Infinity"),
    ],
    ids=["not-utf8", "nested-100000", "float-1e400", "nan", "minus-infinity"],
)
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    out = tmp_path / "u.csv"
    assert main(["resonance", "--config", str(path), "--out", str(out)]) == 2
    assert f"config file {path} {message}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("name", ["a\0b.csv", "a\ud800.csv"], ids=["nul", "lone-surrogate"])
@pytest.mark.parametrize(
    "source, argv",
    [
        ("output.path", ["resonance", "--config", "config.json"]),
        ("--out", ["resonance", "--config", "config.json", "--out"]),
        ("--out", ["figure", "4a", "--out"]),
        ("config file", ["resonance", "--config"]),
    ],
    ids=["output.path", "resonance-out", "figure-out", "config"],
)
def test_unusable_file_path_exits_2_before_the_sweep_runs(
    tmp_path, capsys, monkeypatch, name, source, argv
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    monkeypatch.setattr(cli, "figure_recipe", no_sweep)
    monkeypatch.chdir(tmp_path)
    path = name if source == "output.path" else "r.csv"
    write_config(tmp_path, dict(RESONANCE_CONFIG, output={"path": path}))
    argv = argv if source == "output.path" else [*argv, name]
    assert main(argv) == 2
    assert f"{source} {name!r} cannot name a file" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "path, argv",
    [
        ("no/dir/r.csv", ["resonance", "--config", "config.json"]),
        ("no/dir/s.csv", ["resonance", "--config", "config.json", "--out", "no/dir/s.csv"]),
        ("no/dir/f.csv", ["figure", "4a", "--out", "no/dir/f.csv"]),
        ("config.json/f.csv", ["figure", "4a", "--out", "config.json/f.csv"]),
        (".", ["figure", "3b", "--out", "."]),
    ],
    ids=["output.path", "resonance-out", "figure-out", "parent-is-a-file", "path-is-a-directory"],
)
def test_missing_output_directory_exits_2_before_the_sweep_runs(
    tmp_path, capsys, monkeypatch, path, argv
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    monkeypatch.setattr(cli, "figure_recipe", no_sweep)
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, dict(RESONANCE_CONFIG, output={"path": "no/dir/r.csv"}))
    assert main(argv) == 2
    assert f"cannot write {path!r}" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


def test_figure_default_path_is_checked_before_the_recipe_runs(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(cli, "figure_recipe", no_sweep)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "figure_3b.json").mkdir()
    assert main(["figure", "3B", "--format", "json"]) == 2
    assert "cannot write 'figure_3b.json': it is a directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["resonance", "--config", "config.json", "--out", ""], ["figure", "4a", "--out", ""]],
    ids=["resonance", "figure"],
)
def test_empty_out_flag_exits_2_without_writing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, dict(RESONANCE_CONFIG, output={"path": "r.csv"}))
    assert main(argv) == 2
    assert "--out '' cannot name a file" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


CRX_CONFIG = {
    "experiment": {
        "kind": "crx_resonance",
        "swept": "phi",
        "grid": ["-pi", "pi", 5],
        "fixed": {
            "n_qubits": 3,
            "n_steps": 2,
            "bond_angles": ["pi/1.5", "pi/1.5"],
            "z_template": ["phi", "alpha", "phi"],
            "alpha": "pi/4",
        },
    }
}
# keys a mutation may add, by the path of the object that holds them
_KNOWN_KEYS = {
    ("experiment", "fixed"): [
        "note", "n_qubits", "n_steps", "bond_angles", "z_template", "target_qubit",
        "bond_angle", "base_phi", "gate_family", "profile_eta", "couplings", "potentials",
        "t", "target_site", "init_site", "alpha", "V1",
    ],
    ("experiment",): ["trials", "master_seed", "kind", "swept", "grid", "fixed"],
    ("engine",): ["verification_mode", "threads"],
    ("output",): ["path", "format"],
    (): ["engine", "output", "experiment"],
}
_EXTREMES = st.one_of(
    st.integers(10**308, 10**320) | st.integers(-(10**320), -(10**308)),  # beyond the float range
    st.floats(1e307, sys.float_info.max) | st.floats(-sys.float_info.max, -1e307),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.integers(2**40, 2**80) | st.integers(-(2**80), -(2**40)),
)
_SCALARS = st.one_of(
    _EXTREMES,
    _EXTREMES,
    st.integers(-3, 12) | st.floats(-10, 10),
    st.sampled_from(["pi/0", "NaN", "\ud800", "pi", "-pi/2", "phi", "-alpha", "V1", "1e400"]),
    st.sampled_from(["xy", "crx", "", "localization", "csv", "json", "out.json"]),
    st.booleans() | st.none(),
)
_VALUES = st.one_of(
    _SCALARS,
    _SCALARS,
    _SCALARS,
    st.lists(_SCALARS, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "kind", "path"]), _SCALARS, max_size=2),
)


def _section(cfg, path):
    for key in path:
        cfg = cfg.get(key) if isinstance(cfg, dict) else None
    return cfg


def _slots(node):
    """(container, key) of every value below ``node``, the deepest first."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in reversed(list(keys)):
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])
        yield node, key


def _mutate(data, cfg) -> None:
    """Add a known key with a drawn value, replace a value with a drawn one, or delete it.

    The draws shrink toward the first choice of each list, so the lists
    open with the change that leaves the most of the config to run.
    """
    slots = list(_slots(cfg))
    op = data.draw(st.sampled_from(["add", "replace", "delete"] if slots else ["add"]))
    if op == "add":
        paths = [path for path in _KNOWN_KEYS if isinstance(_section(cfg, path), dict)]
        path = data.draw(st.sampled_from(paths))
        _section(cfg, path)[data.draw(st.sampled_from(_KNOWN_KEYS[path]))] = data.draw(_VALUES)
        return
    container, key = data.draw(st.sampled_from(slots))
    if op == "delete":
        del container[key]
    else:
        container[key] = data.draw(_VALUES)


def _strict_json(text: str):
    """``text`` parsed as standard JSON whose floats are all finite."""

    def finite(token: str) -> float:
        assert math.isfinite(float(token)), f"non-finite number {token} written"
        return float(token)

    def non_standard(token: str):
        raise AssertionError(f"non-standard JSON token {token} written")

    return json.loads(text, parse_float=finite, parse_constant=non_standard)


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_config_reaches_a_traceback(tmp_path, monkeypatch, capsys, data):
    # Exit 0 writes standard JSON numbers only, every float finite (an integer
    # echoed from the config parses exactly).  Exit 2 names a configuration
    # or i/o error, writes nothing and runs no walker or oracle.
    import trotterlab.sweep as sweep

    bases = [RESONANCE_CONFIG, LOCALIZATION_CONFIG, CONTINUOUS_CONFIG, CONVERGENCE_CONFIG]
    cfg = json.loads(json.dumps(data.draw(st.sampled_from([*bases, CRX_CONFIG]))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, cfg)
    command = _subcommand(cfg)
    argv = [data.draw(st.sampled_from([command] * 8 + list(cli._SUBCOMMAND_KINDS)))]
    argv += ["--config", "config.json"]
    if (fmt := data.draw(st.sampled_from([None, "csv", "json"]))) is not None:
        argv += ["--format", fmt]
    if (seed := data.draw(st.none() | st.integers(-3, 3) | st.integers(2**63, 2**70))) is not None:
        argv.append(f"--seed={seed}")
    out = data.draw(st.sampled_from([None] * 6 + ["o.csv", "o.json", "missing/o.csv", "adir", ""]))
    if out is not None:
        argv += ["--out", out]

    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "adir").mkdir()
    (work / "config.json").write_text(json.dumps(cfg))
    before = set(work.rglob("*"))
    calls = []
    with monkeypatch.context() as patch:  # undone after every example
        for name in ("dense_stack", "subspace_stack", "evolve_chains"):
            real = getattr(sweep, name)
            spy = lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k)  # noqa: E731
            patch.setattr(sweep, name, spy)
        patch.chdir(work)
        code = main(argv)
    err = capsys.readouterr().err
    written = sorted(set(work.rglob("*")) - before)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith(("configuration error:", "i/o error:")), err
        assert not written and not calls
        return
    assert written
    for path in written:
        text = path.read_text()
        if not text.startswith("# provenance: "):
            _strict_json(text)
            continue
        header, _, *rows = text.splitlines()
        _strict_json(header.removeprefix("# provenance: "))
        for cell in ",".join(rows).split(","):
            if cell and cell != "series0":
                _strict_json(cell)
