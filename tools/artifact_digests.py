"""SHA-256 of every artifact of a fixed list of bn6 invocations.

    python3 tools/artifact_digests.py SRC OUT

Runs each invocation of INVOCATIONS in a fresh interpreter with
PYTHONPATH=SRC and `--out OUT/<name>` (emptied first), then prints one
`<sha256>  <name>/<file>` line per artifact, as sha256sum does.  The
artifacts record their --out, so two source trees are compared with the
same OUT:

    python3 tools/artifact_digests.py ../parent/src /tmp/digests > a.txt
    python3 tools/artifact_digests.py src /tmp/digests > b.txt
    diff a.txt b.txt

An invocation that exits nonzero prints a `FAILED` line instead of its
digests, and the script then exits 1.
"""

import hashlib
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


def run(src: str, out: str, name: str, argv, config, scratch: str):
    """Run one invocation into out/name; its digest lines, or a FAILED
    line and False."""
    target = os.path.join(out, name)
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    args = [sys.executable, "-m", "bn6.cli", *argv, "--out", target]
    if config is not None:
        path = os.path.join(scratch, name + ".conf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(config)
        args += ["--config", path]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(args, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        return [f"FAILED  {name}: exit {done.returncode}: "
                f"{done.stderr.strip().splitlines()[-1:]}"], False
    lines = []
    for file in sorted(os.listdir(target)):
        with open(os.path.join(target, file), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        lines.append(f"{digest}  {name}/{file}")
    return lines, True


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, out = argv
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        for name, args, config in INVOCATIONS:
            lines, passed = run(src, out, name, args, config, scratch)
            print("\n".join(lines), flush=True)
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
