"""Run a fixed list of CLI invocations and print exit code + sha256 of the report.

usage: python tools/report_digests.py SRC_DIR WORK_DIR
"""
import contextlib, hashlib, io, json, os, sys
src, work = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
import numpy as np
from hourglass import cli
os.makedirs(work, exist_ok=True)
rng = np.random.default_rng(5)

def dump(name, obj):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path

def mat(a):
    a = np.asarray(a, dtype=float)
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.tolist()}

def finite(mats, kind="finite"):
    return {"kind": kind, "matrices": [mat(m) for m in mats]}

ex4 = finite([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
iru_a = {"kind": "iru", "row_sets": [[[0.3, 0.7], [0.6, 0.2]], [[0.5, 0.5]]]}
iru_b = {"kind": "iru", "row_sets": [[[0.4, 0.4]], [[0.9, 0.1], [0.2, 0.8]]]}
big_a = {"kind": "iru", "row_sets": rng.uniform(0.05, 1, size=(4, 3, 4)).tolist()}
big_b = {"kind": "iru", "row_sets": rng.uniform(0.05, 1, size=(4, 3, 4)).tolist()}
sparse = [np.where(rng.uniform(size=(3, 3)) < 0.3, 0.0, rng.uniform(size=(3, 3))) for _ in range(5)]
sp_a = finite(sparse[:3])
sp_b = {"kind": "expr", "expr": {"op": "sum", "left": {"op": "leaf", "set": finite(sparse[3:4])},
        "right": {"op": "scale", "t": 0.5, "child": {"op": "leaf", "set": finite(sparse[2:5])}}}}
expr = {"kind": "expr", "expr": {"op": "prod",
        "left": {"op": "sum", "left": {"op": "leaf", "set": ex4}, "right": {"op": "leaf", "set": iru_a}},
        "right": {"op": "scale", "t": 2.0, "child": {"op": "leaf", "set": iru_b}}}}
ordered = finite([np.full((2, 2), 1.0), np.full((2, 2), 2.0), [[3, 4], [5, 6]]], kind="ordered")
overflow = {"kind": "expr", "expr": {"op": "scale", "t": 1e300, "child": {"op": "leaf", "set": finite([[[1e10]]])}}}
cyc = {"kind": "finite", "matrices": [mat([[0, 0.0807], [0.4218, 0]]), mat(0.15 * np.eye(2))]}
eye = finite([np.eye(2)])
m39a = finite(rng.uniform(size=(39, 2, 2)))
m39b = finite(rng.uniform(size=(39, 2, 2)))
files = {k: dump(k + ".json", v) for k, v in dict(
    ex4=ex4, iru_a=iru_a, iru_b=iru_b, big_a=big_a, big_b=big_b, sp_a=sp_a, sp_b=sp_b,
    expr=expr, ordered=ordered, overflow=overflow, cyc=cyc, eye=eye, m39a=m39a, m39b=m39b,
    cycle_m=mat([[0, 1], [4, 0]]), id2=mat(np.eye(2)), pos=mat([[0.3, 0.7], [0.6, 0.2]])).items()}
with open(os.path.join(work, "bad.json"), "w") as fh:
    fh.write("{nope")
files["bad"] = os.path.join(work, "bad.json")
f = files
cases = [
    ["spectral", f["pos"]],
    ["spectral", f["id2"], "--tol", "1e-10", "--max-iter", "50"],
    ["spectral", f["cycle_m"], "--max-iter", "500"],           # non-convergence, exit 3
    ["minimax", f["ex4"], f["ex4"]],
    ["minimax", f["ex4"], f["ex4"], "--require-equality"],
    ["minimax", f["iru_a"], f["iru_b"], "--table"],
    ["minimax", f["sp_a"], f["sp_b"], "--table"],
    ["minimax", f["big_a"], f["big_b"], "--require-equality", "--tol", "1e-6"],
    ["minimax", f["cyc"], f["eye"], "--table"],                 # non-convergence, exit 3
    ["saddle", f["iru_a"], f["iru_b"], "--certify", "--hull-samples", "50", "--seed", "3"],
    ["saddle", f["big_a"], f["big_b"], "--certify", "--hull-samples", "20", "--seed", "9"],
    ["saddle", f["sp_a"], f["sp_b"], "--certify", "--hull-samples", "10"],
    ["saddle", f["ex4"], f["ex4"], "--require-equality"],
    ["saddle", f["cyc"], f["eye"], "--certify"],                # table non-convergence ignored
    ["saddle", f["ordered"], f["ordered"], "--certify", "--hull-samples", "5"],
    ["hset-check", f["iru_a"], "--probes", "20", "--seed", "1"],
    ["hset-check", f["ex4"], "--probes", "5", "--seed", "1"],
    ["hset-check", f["expr"], "--probes", "3"],
    ["hausdorff", f["ex4"], f["expr"]],
    ["hausdorff", f["iru_a"], f["ordered"]],
    ["algebra", f["expr"]],
    ["algebra", f["sp_b"]],
    ["algebra", f["ordered"]],
    ["algebra", f["big_a"], "--cap", "100000"],
    ["algebra", f["overflow"]],                                  # exit 2
    ["batch", "--trials", "5"],
    ["batch", "--trials", "3", "--seed", "11", "--require-equality"],
    ["minimax", f["bad"], f["ex4"]],                             # parse error, exit 2
    ["minimax", f["iru_a"], f["iru_b"], "--cap", "1"],           # cap error, exit 2
    ["algebra", f["ex4"], "--cap", "0"],                         # flag validation, exit 2
    ["saddle", f["iru_a"], f["iru_b"], "--tol", "0"],            # flag validation, exit 2
    ["saddle", f["iru_a"], f["ex4"], "--certify"],
    ["minimax", f["ex4"], f["big_a"]],                           # shape error, exit 2
]
for argv in cases:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    rel = [os.path.basename(a) if a.startswith(work) else a for a in argv]
    print(code, hashlib.sha256(text.encode()).hexdigest()[:16], " ".join(rel))
# environment cap
os.environ["HOURGLASS_CAP"] = "x"
for argv in (["spectral", f["id2"]], ["algebra", f["ex4"]]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], "HOURGLASS_CAP=x", argv[0])
