"""Golden CLI outputs: the CSV and the manifest's ``resolved`` and
``summary`` blocks that each of the six commands writes at a small
configuration, pinned in ``golden_outputs.json``.

Sampled rows and manifest numbers are compared at rel 1e-10 everywhere,
other manifest values exactly; path values such as ``fit.data`` are not
recorded.  The sha256 of each CSV is compared only where the environment
recorded with the file (numpy and its SIMD targets, the BLAS and its
thread count) matches this one: another libm, BLAS or thread count
may move the last bits of a value without any change to the code.

A change that alters an output on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_golden_outputs.py

and lists each changed hash and the largest relative change.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_outputs.json")
FIT_DATA = os.path.join(HERE, "data", "gain_curve.csv")
SAMPLED_ROWS = 20  # about this many, plus the last row
REL = 1e-10
MANIFEST_BLOCKS = ("resolved", "summary")
PATH_KEYS = {("resolved", "fit", "data")}  # depend on where the tests live

# command -> (config text, extra arguments); trace, g2 and calibrate run at
# the reference defaults
RUNS = {
    "trace": ("", []),
    "g2": ("", []),
    "calibrate": ("", []),
    "sweep-gain": ("[sweep]\ng_values = 5.5, 7.5, 9.5\n", []),
    "fit-gain": (f"[fit]\ndata = {FIT_DATA}\n", []),
    "mc": ("[detection]\npulses = 48\n[mc]\ntau_points = 0.0, 2.5, 45.0\n", ["--seed", "11"]),
}


def environment():
    """What the CSV bytes depend on besides the code."""
    import numpy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if not threads:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "numpy": numpy.__version__,
        "simd": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(threads),
    }


def run_command(command, out_dir):
    """Run ``command`` into ``out_dir``; return its CSV's name, header,
    rows of floats, sha256 and manifest blocks."""
    from macrohom.cli import main

    text, extra = RUNS[command]
    cfg = os.path.join(out_dir, "run.ini")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert main([command, "--config", cfg, "--out", str(out_dir), *extra]) == 0
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    (name,) = manifest["outputs"]
    with open(os.path.join(out_dir, name), "rb") as fh:
        data = fh.read()
    header, *lines = data.decode("utf-8").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines]
    blocks = without_paths({key: manifest[key] for key in MANIFEST_BLOCKS})
    return name, header.split(","), rows, hashlib.sha256(data).hexdigest(), blocks


def without_paths(tree, prefix=()):
    """``tree`` with the values at ``PATH_KEYS`` removed."""
    if not isinstance(tree, dict):
        return tree
    return {
        key: without_paths(value, prefix + (key,))
        for key, value in tree.items()
        if prefix + (key,) not in PATH_KEYS
    }


def assert_same_tree(got, want, where="manifest"):
    """Equal keys; numbers equal at rel ``REL``, other values exactly."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_same_tree(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert type(got) is type(want) and got == pytest.approx(want, rel=REL, abs=0), where
    else:
        assert got == want, where


def sampled(n):
    """Every k-th row index from the first, plus the last."""
    return sorted(set(range(0, n, max(1, n // SAMPLED_ROWS))) | {n - 1})


def regenerate():
    record = {"environment": environment(), "runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for command in RUNS:
            out = os.path.join(tmp, command)
            os.mkdir(out)
            name, header, rows, digest, blocks = run_command(command, out)
            record["runs"][command] = {
                "csv": name,
                "header": header,
                "rows": len(rows),
                "sha256": digest,
                "sample": [[i, rows[i]] for i in sampled(len(rows))],
                "manifest": blocks,
            }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", list(RUNS))
def test_csv_matches_golden(tmp_path, golden, command):
    want = golden["runs"][command]
    name, header, rows, digest, blocks = run_command(command, tmp_path)
    assert (name, header, len(rows)) == (want["csv"], want["header"], want["rows"])
    for i, values in want["sample"]:
        assert rows[i] == pytest.approx(values, rel=REL, abs=0), f"row {i}"
    assert_same_tree(blocks, want["manifest"])
    env = environment()
    if env != golden["environment"]:
        pytest.skip(f"sha256 not compared: environment {env} is not the recorded {golden['environment']}")
    assert digest == want["sha256"]


if __name__ == "__main__":
    import macrohom

    regenerate()
    print(f"wrote {GOLDEN} from {os.path.dirname(macrohom.__file__)}", file=sys.stderr)
