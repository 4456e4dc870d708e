"""Seeded job lists for the three benchmark workloads.

A job is one `python -m treeseries ...` invocation: its argv (after the
module name), an id, and a reference spec that check.py turns into the
expected output by an independent path.  `make_jobs(name, seed, workdir)`
writes the job inputs under `workdir` (through the library, outside any
timed region) and returns one round: every job of the workload once.  A run
repeats that round.  Which jobs run, on which operands and with which output
format, is fixed; the seed only varies sizes (by up to JITTER) and the order,
so every seed costs about the same.  Argvs name files by paths relative to
the checkout root, so two commits given one seed run identical jobs.

Job sizes were chosen on a 2-core x86-64 VM so that most jobs do 0.2-1 s of
work on top of the ~0.15 s of interpreter start and package import.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
from fractions import Fraction

from gold import BY_LABEL, GOLD

JITTER = 0.02  # largest share by which a seed moves a size

# species count -n: base size per gold species, about 0.5 s of work each
COUNT_N = {
    "non-plane-trees": 78,
    "plane-binary-trees": 105,
    "plane-general-trees": 63,
    "permutations": 295,
    "functional-graphs": 38,
    "set-partitions": 137,
    "non-plane-ternary-trees": 178,
    "hierarchies": 78,
    "3-constrained-functional-graphs": 84,
    "3-balanced-hierarchies": 78,
    "surjections": 115,
}
# series --counts on samples/: size, output format, independent reference
SERIES = {
    "bell": (150, "table", ["bell"]),
    "cubic": (200, "csv", "samples/cubic.rds"),  # a hand system, through taylor_oracle
    "labelled_trees": (140, "json", ["rooted_trees"]),
}
# generating-function equiv caps per gold species, about 0.3-0.5 s of work;
# the 3-constrained functional graphs give the widest difference automaton
EQUIV_CAP = {
    "non-plane-trees": 40,
    "plane-binary-trees": 60,
    "plane-general-trees": 40,
    "permutations": 180,
    "functional-graphs": 22,
    "set-partitions": 80,
    "non-plane-ternary-trees": 85,
    "hierarchies": 35,
    "3-constrained-functional-graphs": 12,
    "3-balanced-hierarchies": 40,
    "surjections": 58,
}
# unequal pairs: the hand system gets c*x^m added, so the series first differ
# at index m+1; m is set per species for about 0.3 s of closure work and scan
UNEQUAL_POWER = {"non-plane-trees": 16, "hierarchies": 12, "3-balanced-hierarchies": 16,
                 "surjections": 18}
TS_CAP = 22  # equiv --tree-series bell=bell; the cost grows steeply with the cap

# build: species and hand systems joined into one larger input, so compiling
# does 0.3-1 s of work; the references are series algebra on the gold parts
SPECIES_JOINS = [("*", ["functional-graphs", "3-constrained-functional-graphs"]),
                 ("+", ["functional-graphs", "3-constrained-functional-graphs", "hierarchies"]),
                 ("*", ["functional-graphs", "hierarchies", "surjections"])]
SYSTEM_JOINS = [["3-constrained-functional-graphs", "hierarchies"],
                ["non-plane-ternary-trees", "3-constrained-functional-graphs"],
                ["functional-graphs", "functional-graphs"]]
# hand systems with polynomial right-hand sides, accepted by `compile cda`;
# like da and dfinite, cda compiles in milliseconds even joined
CDA_JOIN = ["set-partitions", "3-balanced-hierarchies", "set-partitions"]
CAUCHY = [("non-plane-trees", "set-partitions"), ("non-plane-ternary-trees", "non-plane-trees")]
MUL_SHIFTED = [("3-constrained-functional-graphs", "functional-graphs")]
DERIVE = "functional-graphs"
INTEGRATE = "3-constrained-functional-graphs"  # linear in the automaton: a short job
INVERSE = "functional-graphs"
HADAMARD = ["set-partitions", "surjections"]
EMIT = "3-constrained-functional-graphs"
EMIT_SOLVE = 16
PREFIX = 8  # coefficients compared for every automaton a build job writes


def _jitter(rng: random.Random, base: int) -> int:
    """base moved by up to JITTER of itself, so seeds differ without changing cost much."""
    step = max(1, round(base * JITTER))
    return base + rng.randint(-step, step)


def taylor(system: str) -> list:
    """Reference series: the first variable of a hand system, by taylor_oracle."""
    return ["taylor", system.strip()]


def gold_series(label: str) -> list:
    return taylor(BY_LABEL[label][2])


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def joined_species(op: str, labels: list) -> str:
    """One species file defining T as the sum or product of gold species
    (whose names are disjoint)."""
    targets = [BY_LABEL[label][1] for label in labels]
    return "\n".join([f"T = {op.join(targets)}"] + [BY_LABEL[label][0] for label in labels])


def joined_system(labels: list) -> str:
    """One hand system whose first variable t is the sum of the gold systems'
    first variables; each part's variables get a suffix of their own."""
    equations, initials, rhs, t0 = [], [], [], Fraction(0)
    for index, label in enumerate(labels):
        system = re.sub(r"\b(?!x\b)([a-z]\w*)\b", rf"\1_{index}", BY_LABEL[label][2])
        *parts, init = [part.strip() for part in system.split(";")]
        rhs.append(f"({parts[0].partition('=')[2].strip()})")
        t0 += Fraction(init.split(",")[0].partition("=")[2])
        equations += parts
        initials.append(init)
    return " ; ".join([f"t' = {' + '.join(rhs)}", *equations, f"t(0)={t0}, " + ", ".join(initials)])


class _Inputs:
    """Writes job inputs once per run; the library call happens on first use."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def text(self, name: str, content: str) -> str:
        path = os.path.join(self.workdir, name)
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content + "\n")
        return path

    def automaton(self, name: str, build) -> str:
        path = os.path.join(self.workdir, name)
        if not os.path.exists(path):
            from treeseries import automaton_to_json

            with open(path, "w", encoding="utf-8") as fh:
                fh.write(automaton_to_json(build()))
        return path

    def spec(self, label: str) -> str:
        return self.text(f"{label}.spec", BY_LABEL[label][0])

    def system(self, label: str) -> str:
        return self.text(f"{label}.rds", BY_LABEL[label][2])

    def species_automaton(self, label: str) -> str:
        from treeseries import compile_rda, parse_species, species_to_rds

        spec, target, _ = BY_LABEL[label]
        return self.automaton(
            f"{label}.species.json",
            lambda: compile_rda(species_to_rds(parse_species(spec), target)),
        )

    def system_automaton(self, system_path: str, name: str) -> str:
        from treeseries import compile_rda, parse_rds

        text = _read(system_path)
        return self.automaton(name, lambda: compile_rda(parse_rds(text)))


def enumerate_jobs(rng: random.Random, inputs: _Inputs) -> list:
    jobs = []
    for label, _, _, _ in GOLD:
        n = _jitter(rng, COUNT_N[label])
        jobs.append({
            "id": f"species-count/{label}/n={n}",
            "argv": ["species", "count", "-f", inputs.spec(label), "-n", str(n)],
            "ref": {"kind": "counts", "series": gold_series(label), "n": n},
        })
    for sample, (base, fmt, series) in SERIES.items():
        n = _jitter(rng, base)
        if isinstance(series, str):
            series = taylor(_read(series))
        jobs.append({
            "id": f"series/{sample}/n={n}/{fmt}",
            "argv": ["series", "-a", f"samples/{sample}.json", "-n", str(n), "--counts",
                     "--format", fmt],
            "ref": {"kind": "series", "series": series, "n": n, "format": fmt},
        })
    return jobs


def _perturbed_system(system: str, coeff: int, power: int) -> str:
    """The hand system with c*x^m added to the target's equation: the series
    first differs at index m+1, by c/(m+1)."""
    head, _, rest = system.partition(";")
    return f"{head.rstrip()} + {coeff}*x^{power} ;{rest}"


def _perturbed_bell(coeff: int, size: int) -> str:
    """samples/bell.json with its binary weight changed only at node sizes >= size:
    the tree series first differ on a tree of that size."""
    payload = json.loads(_read("samples/bell.json"))
    factors = "*".join(f"(x0-{i})" for i in range(1, size))
    (entry,) = payload["weights"]["sigma2"]["entries"]
    entry["value"] = f"(1+{coeff}*{factors})/(x0)"
    return json.dumps(payload, indent=2)


def decide_jobs(rng: random.Random, inputs: _Inputs) -> list:
    from treeseries import automaton_from_json, gf_add, gf_scale

    jobs = []
    for label, _, _, _ in GOLD:
        cap = _jitter(rng, EQUIV_CAP[label])
        jobs.append({
            "id": f"equiv/{label}/cap={cap}",
            "argv": ["equiv", "-a", inputs.species_automaton(label),
                     "-b", inputs.system_automaton(inputs.system(label), f"{label}.system.json"),
                     "--cap", str(cap)],
            "ref": {"kind": "verdict", "verdict": "zero_up_to", "n": cap},
        })
    for label, power in UNEQUAL_POWER.items():
        coeff, cap = rng.randint(1, 9), _jitter(rng, EQUIV_CAP[label])
        perturbed_text = _perturbed_system(BY_LABEL[label][2], coeff, power)
        perturbed = inputs.text(f"{label}.plus{coeff}x{power}.rds", perturbed_text)
        jobs.append({
            "id": f"equiv-unequal/{label}/+{coeff}x^{power}/cap={cap}",
            "argv": ["equiv", "-a", inputs.species_automaton(label),
                     "-b", inputs.system_automaton(perturbed, f"{label}.plus{coeff}x{power}.json"),
                     "--cap", str(cap)],
            "ref": {"kind": "verdict", "verdict": "nonzero_at",
                    "a": gold_series(label), "b": taylor(perturbed_text), "cap": cap},
        })
    jobs.append({
        "id": f"equiv-ts/bell=bell/cap={TS_CAP}",
        "argv": ["equiv", "--tree-series", "-a", "samples/bell.json", "-b", "samples/bell.json",
                 "--cap", str(TS_CAP)],
        "ref": {"kind": "verdict", "verdict": "zero_up_to", "n": TS_CAP},
    })
    coeff, size = rng.randint(1, 9), 4
    bell2 = inputs.text(f"bell.size{size}c{coeff}.json", _perturbed_bell(coeff, size))
    jobs.append({
        "id": f"equiv-ts/bell!=bell'/size={size}",
        "argv": ["equiv", "--tree-series", "-a", "samples/bell.json", "-b", bell2,
                 "--cap", "12"],
        "ref": {"kind": "verdict", "verdict": "differ_at", "size": size,
                "a": "samples/bell.json", "b": bell2},
    })
    # bell vs cubic as tree series (differ_at after building a 36-state Hadamard
    # square: 7-10 s and 226 MB here) is left out: one such job would be 40% of
    # a round, and its run-to-run spread alone exceeds the bounds

    def cancellation():
        bell = automaton_from_json(_read("samples/bell.json"))
        return gf_add(bell, gf_scale(bell, -1))

    cap = _jitter(rng, 60)
    jobs.append({
        "id": f"zero/bell-bell/cap={cap}",
        "argv": ["zero", "-a", inputs.automaton("bell-minus-bell.json", cancellation),
                 "--cap", str(cap)],
        "ref": {"kind": "verdict", "verdict": "zero_up_to", "n": cap},
    })
    return jobs


def build_jobs(rng: random.Random, inputs: _Inputs) -> list:
    jobs = []

    def automaton_job(job_id, argv, series):
        jobs.append({"id": job_id, "argv": argv,
                     "ref": {"kind": "automaton", "series": series, "n": PREFIX}})

    def operand(label):
        return inputs.species_automaton(label)

    for op, labels in SPECIES_JOINS:
        series = [gold_series(label) for label in labels]
        if op == "+":
            ref = ["sum", *series]
        else:
            ref = functools.reduce(lambda f, g: ["cauchy", f, g], series)
        path = inputs.text(f"{ref[0]}-{'-'.join(labels)}.spec", joined_species(op, labels))
        automaton_job(f"species-compile/{op.join(labels)}", ["species", "compile", "-f", path],
                      ref)
    for labels in SYSTEM_JOINS:
        path = inputs.text(f"sum-{'-'.join(labels)}.rds", joined_system(labels))
        automaton_job(f"compile-rda/{'+'.join(labels)}", ["compile", "rda", "-f", path],
                      ["sum", *map(gold_series, labels)])
    path = inputs.text(f"sum-{'-'.join(CDA_JOIN)}.rds", joined_system(CDA_JOIN))
    automaton_job(f"compile-cda/{'+'.join(CDA_JOIN)}", ["compile", "cda", "-f", path],
                  ["sum", *map(gold_series, CDA_JOIN)])
    # the da and dfinite samples compile in milliseconds; no larger input of
    # these languages is at hand, so these two jobs are mostly interpreter start
    automaton_job("compile-da/cubic", ["compile", "da", "-f", "samples/cubic.da"],
                  taylor(_read("samples/cubic.rds")))
    automaton_job("compile-dfinite/factorial",
                  ["compile", "dfinite", "-f", "samples/factorial.dfinite"], ["exp"])
    for op, pairs, ref_op in (("gf-cauchy", CAUCHY, "cauchy"),
                              ("gf-mul-shifted", MUL_SHIFTED, "mul_shifted")):
        for left, right in pairs:
            automaton_job(f"op-{op}/{left}*{right}",
                          ["op", op, "-a", operand(left), "-b", operand(right)],
                          [ref_op, gold_series(left), gold_series(right)])
    for op, label, ref_op in (("gf-derive", DERIVE, "derive"),
                              ("gf-integrate", INTEGRATE, "integrate"),
                              ("gf-inverse", INVERSE, "inverse")):
        automaton_job(f"op-{op}/{label}", ["op", op, "-a", operand(label)],
                      [ref_op, gold_series(label)])
    for label in HADAMARD:
        jobs.append({
            "id": f"op-ts-hadamard/{label}",
            "argv": ["op", "ts-hadamard", "-a", operand(label), "-b", operand(label)],
            "ref": {"kind": "hadamard", "input": operand(label), "max_size": 2},
        })
    jobs.append({
        "id": f"emit-system/{EMIT}",
        "argv": ["emit-system", "-a", operand(EMIT), "--solve", str(EMIT_SOLVE)],
        "ref": {"kind": "system", "series": gold_series(EMIT), "n": EMIT_SOLVE},
    })
    return jobs


BUILDERS = {"enumerate": enumerate_jobs, "decide": decide_jobs, "build": build_jobs}
# seconds of job time per round on the 2-core VM the sizes were set on (medians
# of ten runs); with --seconds 30 every workload runs 2 rounds
ROUND_S = {"enumerate": 15.0, "decide": 20.0, "build": 12.5}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds per run: as many as come nearest to `seconds`, at least one."""
    return max(1, int(seconds / ROUND_S[workload] + 0.5))


def make_jobs(workload: str, seed: int, workdir: str) -> list:
    """One round of `workload` for `seed`, in seeded order, inputs written to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](rng, _Inputs(workdir))
    rng.shuffle(jobs)
    return jobs
