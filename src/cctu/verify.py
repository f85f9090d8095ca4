"""Exact verification of a candidate solution: each row of T x <= b and
the congruency gamma.x in R (mod m), with a readable account of what
fails.  The CLI prints solve answers itself (`cli._emit`)."""

from dataclasses import dataclass


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
