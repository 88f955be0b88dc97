"""SHA-256 of every artifact of a fixed list of bn6 invocations.

    python3 tools/artifact_digests.py SRC OUT
    python3 tools/artifact_digests.py --manifest SRC

Runs each invocation in a fresh interpreter with PYTHONPATH=SRC, working
directory OUT and the relative `--out <name>` (emptied first), then prints
one `<sha256>  <name>/<file>` line per artifact, as sha256sum does.  The
artifacts record their --out as given, so their bytes do not depend on
OUT.  Two source trees are compared by diffing their listings:

    python3 tools/artifact_digests.py ../parent/src /tmp/digests > a.txt
    python3 tools/artifact_digests.py src /tmp/digests > b.txt
    diff a.txt b.txt

The first form runs INVOCATIONS, every command including the costly ones.
--manifest runs the cheap list MANIFEST in a temporary OUT under the
pinned OpenBLAS kernel of KERNEL (artifacts depend on the BLAS kernel)
and prints a header line with the kernel and the numpy and scipy
versions first.  Its output is tests/artifact_digests.txt, which a test
reruns and compares; a change that moves bytes regenerates it with

    python3 tools/artifact_digests.py --manifest src > tests/artifact_digests.txt

An invocation that exits nonzero prints a `FAILED` line instead of its
digests, and the script then exits 1.
"""

import hashlib
import importlib.metadata
import os
import shutil
import subprocess
import sys
import tempfile

# (name, arguments, config file text or None); a_end has no flag
INVOCATIONS = (
    ("ground-state", ("ground-state", "--lambda", "20"), None),
    ("branch", ("branch",), None),
    ("lambda0", ("lambda0",), None),
    ("aux-solve", ("aux-solve",), None),
    ("nondeg", ("nondeg",), None),
    ("ansatz-check", ("ansatz-check",), None),
    ("expansion-check", ("expansion-check",), None),
    ("limits", ("limits",), None),
    ("constants", ("constants",), None),
    ("ground-state-json", ("ground-state", "--lambda", "20",
                           "--format", "json"), None),
    ("aux-solve-json", ("aux-solve", "--format", "json"), None),
    ("nondeg-json", ("nondeg", "--format", "json"), None),
    ("ansatz-check-json", ("ansatz-check", "--format", "json"), None),
    ("expansion-check-json", ("expansion-check", "--format", "json"), None),
    ("lambda0-json", ("lambda0", "--format", "json"), None),
    ("nondeg-grid-64", ("nondeg", "--grid-n", "64"), None),
    ("nondeg-grid-200", ("nondeg", "--grid-n", "200"), None),
    ("nondeg-grid-4097", ("nondeg", "--grid-n", "4097"), None),
    ("limits-N6-m2", ("limits", "--N", "6", "--m", "2"), "a_end = 1e8\n"),
    ("limits-N4-m2", ("limits", "--N", "4", "--m", "2"), "a_end = 1e6\n"),
)

# the committed manifest's invocations: about 3 s in all; branch covers
# the shooting and matching that limits rests on
MANIFEST = (
    ("lambda0", ("lambda0",), None),
    ("constants", ("constants",), None),
    ("ground-state", ("ground-state", "--lambda", "20"), None),
    ("nondeg-grid-64", ("nondeg", "--grid-n", "64"), None),
    ("aux-solve-grid-64", ("aux-solve", "--grid-n", "64"), None),
    ("expansion-check-grid-256", ("expansion-check", "--grid-n", "256"), None),
    ("ansatz-check-grid-256", ("ansatz-check", "--grid-n", "256"), None),
    ("branch", ("branch",), None),
)
# Prescott runs on every x86-64 host that OpenBLAS's DYNAMIC_ARCH serves
KERNEL = {"OPENBLAS_CORETYPE": "Prescott"}


def header() -> str:
    """The manifest's first line: its kernel and library versions."""
    kernel = " ".join(f"{key}={value}" for key, value in KERNEL.items())
    versions = " ".join(f"{lib}={importlib.metadata.version(lib)}"
                        for lib in ("numpy", "scipy"))
    return f"# {kernel} {versions}"


def run(src: str, out: str, name: str, argv, config, scratch: str,
        env: dict):
    """Run one invocation into out/name; its digest lines, or a FAILED
    line and False."""
    target = os.path.join(out, name)
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    args = [sys.executable, "-m", "bn6.cli", *argv, "--out", name]
    if config is not None:
        path = os.path.join(scratch, name + ".conf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(config)
        args += ["--config", path]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **env)
    done = subprocess.run(args, cwd=out, env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        return [f"FAILED  {name}: exit {done.returncode}: "
                f"{done.stderr.strip().splitlines()[-1:]}"], False
    lines = []
    for file in sorted(os.listdir(target)):
        with open(os.path.join(target, file), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        lines.append(f"{digest}  {name}/{file}")
    return lines, True


def digests(src: str, out: str, invocations, env: dict) -> bool:
    """Print the digest lines of every invocation; True when all ran."""
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        for name, args, config in invocations:
            lines, passed = run(src, out, name, args, config, scratch, env)
            print("\n".join(lines), flush=True)
            ok = ok and passed
    return ok


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--manifest":
        print(header(), flush=True)
        with tempfile.TemporaryDirectory() as out:
            ok = digests(argv[1], out, MANIFEST, KERNEL)
    elif len(argv) == 2 and not argv[0].startswith("-"):
        ok = digests(argv[0], argv[1], INVOCATIONS, {})
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
