"""CLI end to end: configs, overrides, exit codes, file schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    cfg = write_config(tmp_path, RESONANCE_CONFIG)
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "3")):
        out = tmp_path / name
        code = main(
            ["resonance", "--config", cfg, "--seed", "7", "--out", str(out), "--threads", threads]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


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
        (_with_fixed(n_steps=float("inf")), "n_steps must be an integer, got inf"),
        (_with_experiment(master_seed=float("inf")), "experiment.master_seed must be an integer"),
        (_with_experiment(master_seed=True), "experiment.master_seed must be an integer"),
        (_with_experiment(trials=float("inf")), "experiment.trials must be an integer"),
        (_with_experiment(trials=2.5), "experiment.trials must be an integer, got 2.5"),
        (_with_experiment(grid=[0, 1, float("inf")]), "grid count must be an integer"),
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
    ],
)
def test_malformed_config_shape_exits_2_naming_the_field(tmp_path, capsys, cfg, message):
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


def test_removed_walker_settings_are_ignored(tmp_path, monkeypatch):
    # engine.backend, fixed.drop_final_z, engine.threads and TROTTERLAB_THREADS
    # are unread: the gate family picks the walker, the final Rz layer is
    # always dropped and every sweep walks on one thread
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
    for i, threads in enumerate([-3, float("inf"), "x", 2]):
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


def test_cli_import_leaves_scipy_signal_unloaded():
    code = "import sys, trotterlab.cli; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(trotterlab.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert run.stdout.strip() == "False"


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"experiment": {"swept": "\xff"}}', "is not valid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100000 + b"]" * 100000, "nests deeper than 100 levels"),
    ],
    ids=["not-utf8", "nested-100000"],
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
