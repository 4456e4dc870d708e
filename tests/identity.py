"""Byte identity of the command line against another source tree.

    python3 tests/identity.py OTHER_SRC

OTHER_SRC is a directory that holds a ``treeseries`` package, for example
the ``src`` of a ``git archive`` export of the parent commit.  A fixed list
of command lines runs twice from the root of this checkout, once with
PYTHONPATH=src and once with PYTHONPATH=OTHER_SRC, both with
PYTHONDONTWRITEBYTECODE=1 and COLUMNS=80: the README's tour, commands on
every file in samples/, ``species count`` and ``species compile`` of each
gold species, ``--help`` and the help of every subcommand, and some usage
and input errors.  Each side writes its files into a temporary directory of
its own, whose path is read as ``{TMP}`` in the output.  The script prints
every command line whose exit code, stdout, stderr or written file
(compared by sha256) differs, and exits 1 if any does.  Tier-1 does not
collect this file.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from species_gold import GOLD_SPECIES  # noqa: E402

SUBCOMMANDS = ("eval", "series", "bound", "zero", "equiv", "op", "compile", "species",
               "emit-system", "enum-trees", "taylor")

# input files written into {TMP} before the first command line runs
INPUTS = {f"gold{i}.spec": text + "\n" for i, (_, text, _, _, _) in enumerate(GOLD_SPECIES)}
INPUTS.update({
    "named-x.spec": "x = X*set(x)\n",
    "trailing.spec": "B = X + + B\n",
    "undefined.spec": "B = X + C\n",
    "itself.spec": "A = A\n",
    "inadmissible.spec": "A = set(1 + X)\n",
    "bad.rds": "y' = y* ; y(0)=1\n",
    "bad.json": '{"dimension": 1, "alphabet": []\n',
})


def _tour():
    """The README's tour, with its /tmp/ paths moved into {TMP}."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [[arg.replace("/tmp/", "{TMP}/", 1) if arg.startswith("/tmp/") else arg
             for arg in shlex.split(line, comments=True)[1:]]
            for line in readme.splitlines() if line.startswith("treeseries ")]


def _samples():
    lines = []
    for path in sorted((ROOT / "samples").iterdir()):
        sample, out = f"samples/{path.name}", f"{{TMP}}/{path.name}.json"
        if path.suffix == ".json":
            lines += [["series", "-a", sample, "-n", "8", "--counts"],
                      ["bound", "-a", sample],
                      ["emit-system", "-a", sample, "--solve", "4"],
                      ["equiv", "-a", sample, "-b", sample, "--cap", "8"],
                      ["zero", "--tree-series", "-a", sample, "--cap", "4"],
                      ["op", "gf-derive", "-a", sample, "-o", out]]
        elif path.suffix == ".spec":
            lines += [["species", "count", "-f", sample, "-n", "10"],
                      ["species", "compile", "-f", sample, "-o", out]]
        elif path.suffix == ".rds":
            lines += [["compile", "rda", "-f", sample, "-o", out], ["taylor", "-f", sample, "-n", "8"]]
        else:  # .da and .dfinite
            lines.append(["compile", path.suffix[1:], "-f", sample, "-o", out])
    return lines


def _gold():
    lines = []
    for i, (_, _, target, _, _) in enumerate(GOLD_SPECIES):
        spec = f"{{TMP}}/gold{i}.spec"
        lines += [["species", "count", "-f", spec, "--target", target, "-n", "12"],
                  ["species", "compile", "-f", spec, "--target", target, "-o", f"{{TMP}}/gold{i}.json"]]
    return lines


def _errors():
    return [
        [],
        ["frobnicate"],
        ["series"],
        ["series", "-a", "samples/bell.json", "-n", "ten"],
        ["series", "-a", "{TMP}/missing.json"],
        ["series", "-a", "{TMP}/bad.json"],
        ["compile", "rda", "-f", "{TMP}/bad.rds"],
        ["species", "count", "-f", "{TMP}/named-x.spec", "-n", "6"],
        ["species", "count", "-f", "{TMP}/trailing.spec"],
        ["species", "count", "-f", "{TMP}/undefined.spec"],
        ["species", "count", "-f", "{TMP}/itself.spec"],
        ["species", "compile", "-f", "{TMP}/inadmissible.spec"],
        ["species", "count", "-f", "samples/bell.spec", "--target", "Z"],
        ["enum-trees", "--alphabet", "a/0,f/x", "-n", "3"],
    ]


COMMAND_LINES = (_tour() + _samples() + _gold() + [["--help"]]
                 + [[name, "--help"] for name in SUBCOMMANDS] + _errors())


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def run_side(src: Path) -> list:
    """(exit code, stdout, stderr, {written file: sha256}) of every command
    line, run in order with ``src`` first on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
    results = []
    with tempfile.TemporaryDirectory(prefix="treeseries-identity-") as tmp:
        for name, text in INPUTS.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for argv in COMMAND_LINES:
            args = [arg.replace("{TMP}", tmp) for arg in argv]
            done = subprocess.run([sys.executable, "-m", "treeseries", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=300)
            written = {argv[i + 1]: _digest(Path(args[i + 1]))
                       for i, arg in enumerate(argv[:-1]) if arg == "-o"}
            results.append((done.returncode, done.stdout.replace(tmp, "{TMP}"),
                            done.stderr.replace(tmp, "{TMP}"), written))
    return results


def _first_difference(a: str, b: str) -> str:
    for line_a, line_b in zip(a.splitlines() + [""], b.splitlines() + [""]):
        if line_a != line_b:
            return f"{line_a!r} | {line_b!r}"
    return "line endings"


def main(argv) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "treeseries").is_dir():
        print("usage: python3 tests/identity.py OTHER_SRC  (a directory holding treeseries/)",
              file=sys.stderr)
        return 2
    with ThreadPoolExecutor(max_workers=2) as pool:
        mine, other = pool.map(run_side, [ROOT / "src", Path(argv[0]).resolve()])
    differ = 0
    for line, a, b in zip(COMMAND_LINES, mine, other):
        if a == b:
            continue
        differ += 1
        print(shlex.join(["treeseries", *line]))
        for field, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                shown = f"{x} | {y}" if field == "exit code" else _first_difference(x, y)
                print(f"  {field}: {shown}")
        for path in sorted(a[3]):
            if a[3][path] != b[3][path]:
                print(f"  {path}: sha256 {a[3][path][:12]} | {b[3][path][:12]}")
    print(f"{len(COMMAND_LINES)} command lines, {differ} differ (this checkout | OTHER_SRC)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
