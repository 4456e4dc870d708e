"""The differential system that defines an automaton's generating function.

``emit_differential_system`` reads the system off the common-denominator form
of the weights; ``DifferentialSystem.forward_solve`` runs the coefficient
engine on it, and ``equations_text`` writes it out.  ``decide`` offers these
names as its own and runs this module on the first read of one of them: the
zeroness and equivalence scans use the same form, but never the system.
"""

from __future__ import annotations

import sys

from . import cli
from ._format import format_unipoly
from ._record import record
from .core import Automaton
from .exactmath import CommonDenominatorForm
from .series import ConvolutionEngine, VectorSeriesPrefix, _emit_series, common_form, initial_vector


@record
class DifferentialSystem:
    """The system pinning the coefficient vectors of an automaton.

    With Q(x) = sum c_i x^i the shared size denominator and Q_{g,i} the
    per-child denominators (coefficients b_{g,i,j}), the vectors f (the
    generating series) and p_{g,i} (f with coefficients divided by
    Q_{g,i}(n)) satisfy, writing S for the operator f -> x f':

        sum_i c_i S^i[f] - c_0 a_0
            = x * sum_{g} sum_{(i_1..i_k)} (S^{i_1}[p_{g,1}] (x) ... ) M_{g,(i_1..i_k)}
        f = sum_j b_{g,i,j} S^j[p_{g,i}]          (one equation per g and i)

    which forces every coefficient from a_0 upward (forward_solve).  The
    zeroness reduction adjoins f_1 = 0 and V_i = f_i - (a_0)_i - x h_i with
    fresh variables h_1..h_d pinning the initial values.
    """

    dimension: int
    a0: tuple
    form: CommonDenominatorForm
    arities: dict  # symbol -> arity

    def equation_count(self) -> int:
        return self.dimension * (
            1 + sum(self.arities[g] for g in self.form.symbols)
        )

    def forward_solve(self, n_max: int) -> VectorSeriesPrefix:
        """Coefficient vectors a_0..a_n_max, each forced by the system from
        the ones before it: the coefficient engine run on self.form."""
        engine = ConvolutionEngine(self.a0, self.form)
        return VectorSeriesPrefix(tuple(engine.up_to(n_max)))

    def equations_text(self) -> str:
        lines = []
        q_text = format_unipoly(self.form.q0, "x")
        lines.append(f"Q(x) = {q_text}")
        for name, dec in sorted(self.form.symbols.items()):
            for i, den in enumerate(dec.child_denominators, start=1):
                lines.append(f"Q_{{{name},{i}}}(x) = {format_unipoly(den, 'x')}")
        lines.append("")
        lines.append(
            "sum_i c_i S^i[f] - c_0 a0 = x * ( "
            + " + ".join(
                f"(S^{{{_fmt_exps(exps)}}}[p_{{{name}}}]) . M_{{{name},{_fmt_exps(exps)}}}"
                for name, dec in sorted(self.form.symbols.items())
                for exps in sorted(dec.matrices)
            )
            + " )"
            if self.form.symbols
            else "f = a0"
        )
        for name, dec in sorted(self.form.symbols.items()):
            for i in range(1, dec.arity + 1):
                lines.append(f"f = sum_j b_{{{name},{i},j}} S^j[p_{{{name},{i}}}]")
        lines.append("")
        lines.append(f"a0 = ({', '.join(str(v) for v in self.a0)})")
        d = self.dimension
        lines.append(
            "zeroness reduction: adjoin f_1 = 0 and V_i = f_i - (a0)_i - x*h_i"
            f" with fresh h_1..h_{d}; {self.equation_count()} scalar equations"
        )
        return "\n".join(lines) + "\n"


def _fmt_exps(exps) -> str:
    return ",".join(str(e) for e in exps)


def emit_differential_system(a: Automaton) -> DifferentialSystem:
    return DifferentialSystem(
        a.dimension,
        initial_vector(a),
        common_form(a),
        {name: k for name, k in a.alphabet.symbols if k >= 1},
    )


# ---------------------------------------------------------------------------
# the `emit-system` command


def _cmd_emit_system(args) -> int:
    system = emit_differential_system(cli._load_automaton(args.automaton))
    sys.stdout.write(system.equations_text())
    if args.solve:
        prefix = system.forward_solve(args.solve)
        print()
        _emit_series([v[0] for v in prefix.vectors], "table")
    return cli.EXIT_OK
