"""Byte identity as a tested contract: the committed artifact manifest."""

import importlib.metadata
import os
import subprocess
import sys

import numpy
import pytest
import scipy

import bn6

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "artifact_digests.txt")
TOOL = os.path.join(HERE, os.pardir, "tools", "artifact_digests.py")


def _skip_reason(header: str) -> str | None:
    """Why this host cannot reproduce the manifest's bytes, or None."""
    recorded = dict(field.split("=", 1) for field in header[2:].split())
    for lib in ("numpy", "scipy"):
        if recorded[lib] != importlib.metadata.version(lib):
            return (f"{lib} {importlib.metadata.version(lib)} is not the "
                    f"manifest's {recorded[lib]}")
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            return (f"{module.__name__}'s BLAS is not an OpenBLAS built with "
                    f"DYNAMIC_ARCH, so the manifest's kernel cannot be pinned")
    return None


def test_cheap_invocations_write_the_manifests_bytes():
    # the tool runs each invocation in a child process whose environment
    # alone pins the kernel; a change that moves bytes regenerates the manifest
    # and says why in CHANGES.md
    with open(MANIFEST, encoding="utf-8") as handle:
        want = handle.read().splitlines()
    reason = _skip_reason(want[0])
    if reason is not None:
        pytest.skip(reason)
    src = os.path.dirname(os.path.dirname(os.path.abspath(bn6.__file__)))
    done = subprocess.run([sys.executable, TOOL, "--manifest", src],
                          capture_output=True, text=True)
    got = done.stdout.splitlines()
    moved = sorted(set(got) ^ set(want))
    assert done.returncode == 0 and not moved, "\n".join(moved)
