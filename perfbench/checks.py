"""Output checks, one per workload.

Each check takes the exit code and captured stdout of one op and returns a
Verdict: whether the output is correct, why not, and the units of work the
op completed (cells, samples or certificates).  A failed check counts the
op as failed.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

REF_TOL_MEV = 0.02

_LINE_HEADER = re.compile(r"^# line (lower|upper): .* u0=(\S+) nodes=(\d+) ")
_AIM_LEVEL = re.compile(r"^level n=(\d+): (\d+)/(\d+) ")


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    work: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


def _fail(detail: str) -> Verdict:
    return Verdict(ok=False, detail=detail)


# ------------------------------------------------------------ paper-grid

def load_reference(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _energy(raw: str) -> Optional[float]:
    return None if raw in ("None", "") else float(raw)


def check_paper_grid(rc: int, out: str, reference: list,
                     tol: float = REF_TOL_MEV) -> Verdict:
    """Wide CSV against the reference table: every tabulated energy within
    tol, no tabulated line missing, extra roots allowed (the rule of
    ``solve --check --allow-extra-roots``)."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    by_key = {(round(float(r["delta"]), 9), round(float(r["lambda_b"]), 9),
               r["line"]): r for r in rows}
    if len(by_key) != len(reference):
        return _fail(f"{len(by_key)} table rows, reference has "
                     f"{len(reference)}")
    energy_cols = [c for c in reference[0] if c.startswith("E")]
    worst = 0.0
    for ref in reference:
        key = (round(float(ref["delta"]), 9), round(float(ref["lambda_b"]), 9),
               ref["line"])
        got = by_key.get(key)
        if got is None:
            return _fail(f"row {key} missing")
        for col in energy_cols:
            expected, computed = _energy(ref[col]), _energy(got[col])
            if expected is None:
                continue
            if computed is None:
                return _fail(f"{key} {col}: reference {expected}, "
                             "no root found")
            dev = abs(computed - expected)
            worst = max(worst, dev)
            if dev > tol:
                return _fail(f"{key} {col}: {computed} vs reference "
                             f"{expected} (dev {dev:.5f} MeV)")
    # Rows are (delta, lambda_b, line); each block of two is one spectrum.
    cells = len(rows) // 2 * len(energy_cols)
    return Verdict(ok=True, work=cells, extra={"ref_dev_max_mev": worst})


# ----------------------------------------------------------------- sweep

def check_sweep(rc: int, out: str) -> Verdict:
    """No failed entry, and every converged energy is a root: its residual,
    re-evaluated from the manifest inputs exactly as the CLI built them, is
    within tol_residual and passes sign_validity."""
    from kgbound.model import (CouplingMode, ParticleSpec, PhysicalConstants,
                               PotentialSpec, QuantumNumbers)
    from kgbound.quantization import (build_residual_spec, residual,
                                      sign_validity)
    if rc != 0:
        return _fail(f"exit code {rc}")
    payload = json.loads(out)
    man = payload["manifest"]
    constants = PhysicalConstants(hbar_c=man["hbar_c"])
    particle = ParticleSpec(m0c2=man["m0c2"], lam=man["lambda"])
    mode = CouplingMode.parse(man["mode"])
    tol = man["tol_residual"]
    cells = lines = absent = 0
    for point in payload["points"]:
        v = point["value"]
        delta = v if man["axis"] == "delta" else man["fixed_delta"]
        lam_b = v if man["axis"] == "lambda_b" else man["fixed_lambda_b"]
        pot = PotentialSpec.from_lambda_b(A=man["A"], delta=delta,
                                          lambda_b=lam_b, particle=particle,
                                          mode=mode)
        for cell in point["table"]["cells"]:
            cells += 1
            spec = None
            for entry in cell["entries"]:
                lines += 1
                status = entry["status"]
                if status == "failed":
                    return _fail(f"failed entry at {man['axis']}={v} "
                                 f"(n={entry['n']}, l={entry['l']}): "
                                 f"{entry['detail']}")
                if status == "absent":
                    absent += 1
                    continue
                if spec is None:
                    spec = build_residual_spec(
                        constants, particle, pot,
                        QuantumNumbers(n=cell["n"], l=cell["l"]),
                        branch=man["branch"],
                        window_margin=man["window_margin"])
                E = entry["energy"]
                res = residual(spec, E)
                if not abs(res) <= tol:
                    return _fail(f"E={E} at {man['axis']}={v} (n={cell['n']},"
                                 f" l={cell['l']}): residual {res} > {tol}")
                if not sign_validity(spec, E):
                    return _fail(f"E={E} at {man['axis']}={v}: fails "
                                 "sign_validity")
    return Verdict(ok=True, work=cells,
                   extra={"lines": lines, "absent_lines": absent})


# ---------------------------------------------------------- wavefunction

def check_wavefunction(rc: int, out: str, n: int, points: int) -> Verdict:
    """Every emitted line has n nodes and u(0) = 0, and the table has one
    row per radius."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    lines = comments = 0
    for ln in out.splitlines():
        if not ln.startswith("#"):
            break
        comments += 1
        m = _LINE_HEADER.match(ln)
        if m is None:
            continue
        lines += 1
        if m.group(2) != "0.0":
            return _fail(f"{m.group(1)} line: u0={m.group(2)}, expected 0.0")
        if int(m.group(3)) != n:
            return _fail(f"{m.group(1)} line: {m.group(3)} nodes, "
                         f"expected {n}")
    if lines == 0:
        return _fail("no line reported")
    data_rows = out.count("\n") - comments - 1
    if data_rows != points:
        return _fail(f"{data_rows} data rows, expected {points}")
    return Verdict(ok=True, work=points * lines, extra={"lines": lines})


# ------------------------------------------------------------------- aim

def check_aim(rc: int, out: str, perturb: bool) -> Verdict:
    """Exact run: every seed terminates, PASS, exit 0.  Perturbed run: no
    seed terminates, exit 2."""
    levels = [_AIM_LEVEL.match(ln) for ln in out.splitlines()]
    levels = [m for m in levels if m is not None]
    if not levels:
        return _fail("no level lines")
    certs = sum(int(m.group(3)) for m in levels)
    if perturb:
        if rc != 2:
            return _fail(f"perturbed run exit code {rc}, expected 2")
        hits = sum(int(m.group(2)) for m in levels)
        if hits or "warning" in out:
            return _fail(f"{hits} perturbed seeds terminated")
    else:
        if rc != 0:
            return _fail(f"exit code {rc}")
        if any(m.group(2) != m.group(3) for m in levels):
            return _fail("a seed did not terminate at its exact tau")
        if not out.rstrip().endswith("certificate: PASS"):
            return _fail("no 'certificate: PASS' line")
    return Verdict(ok=True, work=certs)
