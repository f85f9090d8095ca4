"""Solution verification and the machine-readable solve report."""

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RowViolation:
    row: int
    lhs: int
    rhs: int

    @property
    def slack(self):
        return self.rhs - self.lhs


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    row_violations: tuple
    residue: int
    residue_ok: bool
    targets: tuple

    def describe(self):
        if self.ok:
            return "all constraints satisfied; residue in target set"
        parts = []
        for v in self.row_violations:
            parts.append(f"row {v.row}: {v.lhs} > {v.rhs} (violated by {-v.slack})")
        if not self.residue_ok:
            parts.append(f"congruency: residue {self.residue} not in {sorted(self.targets)}")
        return "; ".join(parts)


def verify_solution(inst, x):
    """Row-by-row check of T x <= b plus the congruency constraint."""
    lhs = inst.P.T.matrix.mul_vec(x)
    violations = tuple([
        RowViolation(i, l, bv) for i, (l, bv) in enumerate(zip(lhs, inst.P.b)) if l > bv
    ])
    residue = inst.residue(x)
    residue_ok = residue in inst.R
    return VerificationReport(
        not violations and residue_ok, violations, residue, residue_ok, tuple(sorted(inst.R))
    )


@dataclass
class SolveReport:
    """CLI-facing result: status, solution, statistics, wall time."""

    status: str  # feasible | infeasible | unbounded | unsupported
    x: tuple = None
    value: int = None
    stats: dict = field(default_factory=dict)
    elapsed: float = 0.0
    solver: str = "structural"

    def to_json(self):
        return json.dumps(
            {
                "status": self.status,
                "x": list(self.x) if self.x is not None else None,
                "value": self.value,
                "stats": self.stats,
                "elapsed": round(self.elapsed, 6),
                "solver": self.solver,
            },
            sort_keys=True,
        )

    def describe(self):
        lines = [f"status: {self.status}"]
        if self.x is not None:
            lines.append("x: " + " ".join(str(v) for v in self.x))
        if self.value is not None:
            lines.append(f"value: {self.value}")
        if self.stats:
            pretty = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
            lines.append(f"stats: {pretty}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)
