"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import re

import pytest

import run
import workloads
from checks import check_aim, check_paper_grid, check_sweep, check_wavefunction
from layers import Tracer, layer_metric_specs, self_times

cli = run.load_cli()


def call(argv):
    rc, out, err, _ = run.run_op(cli, argv)
    return rc, out


def argvs(workload, seed, count=40):
    return [op.argv for op in
            itertools.islice(workloads.ops(workload, seed), count)]


# ------------------------------------------------------------ generator

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert argvs(workload, 7) == argvs(workload, 7)


@pytest.mark.parametrize("workload", ("sweep", "wavefunction", "aim"))
def test_seed_changes_draws(workload):
    assert argvs(workload, 7) != argvs(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_numbers_are_attached_to_their_flag(workload):
    # argparse rejects a separate negative value such as "-5e-05".
    for argv in argvs(workload, 3):
        assert not any(re.match(r"^-\d", a) for a in argv), argv


def test_paper_grid_cycles_all_modes():
    modes = [op.param("mode") for op in
             itertools.islice(workloads.ops("paper-grid", 5), 8)]
    assert sorted(modes[:4]) == sorted(workloads.MODES)
    assert modes[:4] == modes[4:]


def test_aim_rounds_alternate_exact_and_perturbed():
    ops = list(itertools.islice(workloads.ops("aim", 2), 4))
    assert [op.param("perturb") for op in ops] == [False, True] * 2
    assert [op.closes_round for op in ops] == [False, True] * 2
    assert ops[1].argv[:-1] == ops[0].argv


# --------------------------------------------------------------- checks

def _reference(mode):
    return run.Checker("paper-grid").reference[mode]


def test_paper_grid_check_accepts_real_and_rejects_shifted_cell():
    rc, out = call(["solve", "--mode", "pv", "--paper-grid"])
    ref = _reference("pv")
    good = check_paper_grid(rc, out, ref)
    assert good.ok, good.detail
    assert good.work == 90
    assert 0.0 < good.extra["ref_dev_max_mev"] < 0.02
    # Shift the first tabulated energy of one row by 0.05 MeV.
    lines = out.splitlines()
    i = next(k for k, ln in enumerate(lines)
             if not ln.startswith("#") and re.search(r",\d+\.\d{5}", ln))
    cells = lines[i].split(",")
    j = next(k for k in range(3, len(cells)) if cells[k] != "None")
    cells[j] = f"{float(cells[j]) + 0.05:.5f}"
    lines[i] = ",".join(cells)
    bad = check_paper_grid(rc, "\n".join(lines) + "\n", ref)
    assert not bad.ok
    assert "dev" in bad.detail


def test_paper_grid_check_rejects_missing_root_and_exit_code():
    rc, out = call(["solve", "--mode", "ps", "--paper-grid"])
    ref = _reference("ps")
    assert check_paper_grid(rc, out, ref).ok
    lines = out.splitlines()
    i = next(k for k, ln in enumerate(lines)
             if not ln.startswith("#") and re.search(r",\d+\.\d{5}", ln))
    lines[i] = re.sub(r",\d+\.\d{5}", ",None", lines[i], count=1)
    assert not check_paper_grid(rc, "\n".join(lines) + "\n", ref).ok
    assert not check_paper_grid(2, out, ref).ok


def test_paper_grid_repeat_must_be_byte_identical():
    check = run.Checker("paper-grid")
    op = next(workloads.ops("paper-grid", 1))
    rc, out = call(op.argv)
    assert check(op, rc, out, "").ok
    assert check(op, rc, out, "").ok
    assert not check(op, rc, out.replace("\n", "\n\n", 1), "").ok


def test_wavefunction_check_rejects_wrong_nodes_and_origin():
    argv = ["wavefunction", "--mode", "ps", "--n=2", "--l=1",
            "--delta=0.001", "--lambda-b=-0.002", "--points=300"]
    rc, out = call(argv)
    good = check_wavefunction(rc, out, n=2, points=300)
    assert good.ok, good.detail
    assert good.work == 300 * good.extra["lines"]
    assert not check_wavefunction(rc, out.replace("nodes=2", "nodes=3", 1),
                                  n=2, points=300).ok
    assert not check_wavefunction(rc, out.replace("u0=0.0", "u0=1e-300", 1),
                                  n=2, points=300).ok
    assert not check_wavefunction(rc, out, n=2, points=299).ok


def test_sweep_check_rejects_moved_energy_and_failed_entry():
    argv = ["sweep", "--mode", "emes", "--axis", "delta", "--start=-0.002",
            "--stop=0.002", "--step=0.002", "--A=200.0", "--lambda-b=0.003",
            "--nmax=1", "--format", "json"]
    rc, out = call(argv)
    good = check_sweep(rc, out)
    assert good.ok, good.detail
    assert good.work == 3 * 3
    payload = json.loads(out)
    entry = next(e for p in payload["points"] for c in p["table"]["cells"]
                 for e in c["entries"] if e["status"] == "converged")
    entry["energy"] += 1e-3
    assert not check_sweep(rc, json.dumps(payload)).ok
    entry["energy"] -= 1e-3
    entry["status"] = "failed"
    assert not check_sweep(rc, json.dumps(payload)).ok


def test_aim_check_rejects_fail_and_wrong_exit_codes():
    rc, out = call(["aim-verify", "--nmax=2", "--seeds=1", "--seed=11"])
    good = check_aim(rc, out, perturb=False)
    assert good.ok, good.detail
    assert good.work == 3
    assert not check_aim(rc, out.replace("PASS", "FAIL"), perturb=False).ok
    assert not check_aim(rc, out, perturb=True).ok
    rc, out = call(["aim-verify", "--nmax=2", "--seeds=1", "--seed=11",
                    "--perturb"])
    assert check_aim(rc, out, perturb=True).ok
    assert not check_aim(0, out, perturb=True).ok
    hit = out.replace("0/1 perturbed", "1/1 perturbed", 1)
    assert not check_aim(rc, hit, perturb=True).ok


# -------------------------------------------------------------- tracing

def test_self_time_of_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("b", 6.5, 8.0, 0, 0),   # overlaps the first b; union is [5, 8]
    ]
    got = self_times(spans)
    assert got["root"] == [1, 10.0, 10.0 - 3.0 - 3.0]
    assert got["a"] == [1, 3.0, 2.0]
    assert got["leaf"] == [1, 1.0, 1.0]
    assert got["b"][0] == 2
    assert got["b"][1] == pytest.approx(3.5)
    assert got["b"][2] == pytest.approx(3.5)


def test_tracer_patches_where_callers_look_up_and_restores():
    import kgbound.cli as kcli
    import kgbound.quantization as q
    import kgbound.rootfind as rf
    from kgbound import _kernels
    before = (kcli.solve_spectrum, rf.solve_cell, _kernels.residual_grid,
              kcli.build_residual_spec, rf.build_residual_spec)
    tracer = Tracer()
    tracer.install()
    try:
        assert kcli.solve_spectrum is not before[0]
        assert rf.solve_cell is not before[1]
        assert _kernels.residual_grid is not before[2]
        assert kcli.build_residual_spec is q.build_residual_spec
        call(["solve", "--mode", "ps", "--nmax=1"])
    finally:
        tracer.uninstall()
    assert (kcli.solve_spectrum, rf.solve_cell, _kernels.residual_grid,
            kcli.build_residual_spec, rf.build_residual_spec) == before
    tracer.fold(keep=False)
    m = tracer.metrics(passes=1)
    assert m["rootfind.solve_spectrum.calls"] == 1
    assert m["rootfind.solve_cell.calls"] == 3
    assert m["quantization.build_residual_spec.calls"] == 3
    assert m["kernels.residual_grid.points"] >= 3 * 4000
    assert m["rootfind.solve_cell.self_s"] <= m["rootfind.solve_cell.busy_s"]
    assert m["cli.main.busy_s"] >= m["rootfind.solve_spectrum.busy_s"]


def _traced(workload, seed):
    spans = run.RESULTS / "test_spans.jsonl"
    run.RESULTS.mkdir(exist_ok=True)
    try:
        m, tally, _ = run.run_traced(cli, workload, seed, 0.0, spans)
    finally:
        spans.unlink(missing_ok=True)
    assert tally.failed == 0
    return m


def test_traced_counts_repeat_exactly():
    first, second = _traced("paper-grid", 4), _traced("paper-grid", 4)
    counts = [k for k, unit, _ in layer_metric_specs() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["rootfind.solve_spectrum.calls"] == 4 * 9


def test_traced_aim_iterates_45_times_per_seed():
    m = _traced("aim", 3)
    assert m["aim.iterate.per_seed"] == 45
    assert m["aim.terminates_at.calls"] == 2 * (workloads.AIM_NMAX + 1)


# -------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == layer_metric_specs())


def test_percentile_and_scaling():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, 3.0], 100) == 3.0
    ref = run.CAL_REFERENCE_S
    assert run.scaled([1.0, 1.0], [ref, ref, ref]) == pytest.approx([1, 1])
    assert run.scaled([1.0], [2 * ref, 2 * ref]) == pytest.approx([0.5])
    # Op 0 sees the calibrations before and after it, not the far one.
    window = run.CAL_WINDOW
    cal = [ref] * (window + 1) + [100 * ref]
    assert run.scaled([1.0], cal) == pytest.approx([1.0])
