"""Seeded inputs and job pools for the benchmark workloads.

Every input is built here from the workload seed; dqkit only ever receives the
generated objects (or documents written from them).  The generators are kept
in this directory, not imported from the test suite, so that edits to the
tests cannot shift the workloads.

A workload runs its pool in passes.  Each pass gets the same jobs under the
same keys, built on the same structures, with coefficient signs drawn afresh
from the seed and the pass number, so that no cache keyed on inputs can carry
a result from one pass to the next (corpus documents and the named ROADMAP
jobs have fixed inputs).  Pass 0 is built during set-up; later
passes are built between passes, outside the job times.

A job is split in two: ``run`` does the dqkit work and is timed; ``check``
compares what ``run`` returned against an exact oracle identity and returns
the canonical text whose SHA-256 is compared with ``expected.json``.  ``check``
calls nothing in dqkit, so it never shows up in a trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from dqkit import cli as dq_cli
from dqkit import diffop, kernel, liealgebroid, parser, poisson, qclimit, starprod
from dqkit.calculus import Form, MultiVec
from dqkit.errors import SolveError

Poly = kernel.Poly
PolyDiffOp = diffop.PolyDiffOp
GaugeOp = starprod.GaugeOp
Document = parser.Document

DEFAULT_SEED = 0

# Fixed seed of the gauge in the ROADMAP assoc_defect baseline job (one of
# moderate cost): its input does not move with --seed, so its median can be
# compared with the ROADMAP figure on any run.
ROADMAP_SEED = 6


class OracleFailure(Exception):
    """A job's result broke its exact oracle identity."""


@dataclass
class Job:
    key: str                       # unique within the workload, stable across runs
    run: Callable[[], Any]         # timed: the dqkit work
    check: Callable[[Any], str]    # untimed: oracle; returns the text to hash
    seeded: bool                   # True when the result depends on --seed
    named: Optional[str] = None    # ROADMAP baseline name, if this job is one


class Workload:
    def __init__(self, name, make_pool, workdir=None):
        self.name = name
        self.make_pool = make_pool     # pass number -> jobs, same keys in the same order
        self.workdir = workdir
        self.jobs = make_pool(0)

    def pool(self, pass_no):
        return self.jobs if pass_no == 0 else self.make_pool(pass_no)


# ----------------------------------------------------------------------
# canonical text of results (independent of dqkit's own serializer)


def canon(x):
    """A JSON-able normal form of dqkit values; dict order never leaks in."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return x
    if isinstance(x, Poly):
        return [[list(e), str(c)] for e, c in sorted(x.terms.items())]
    if isinstance(x, PolyDiffOp):
        return {
            "dim": x.dim,
            "arity": x.arity,
            "terms": [[[list(o) for o in k], canon(c)] for k, c in sorted(x.terms.items())],
        }
    if isinstance(x, MultiVec):
        return {
            "dim": x.dim,
            "degree": x.degree,
            "terms": [[list(k), canon(c)] for k, c in sorted(x.terms.items())],
        }
    if isinstance(x, starprod.StarProduct):
        return {"dim": x.dim, "order": x.order, "P": [canon(p) for p in x.P]}
    if isinstance(x, kernel.TPoly):
        return {"order": x.order, "coeffs": [canon(c) for c in x.coeffs]}
    if isinstance(x, GaugeOp):
        return {"dim": x.dim, "order": x.order, "R": [canon(r) for r in x.R]}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (str, bool)) or x is None:
        return x
    raise TypeError(f"no canonical form for {type(x).__name__}")


def canon_text(x) -> str:
    return json.dumps(canon(x), separators=(",", ":"), sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require(cond, message):
    if not cond:
        raise OracleFailure(message)


# ----------------------------------------------------------------------
# generators: copies of the seeded test-suite generators, plus the inputs the
# test suite does not have (non-special second-order gauges, so3 sums)


def rand_poly(shape, rng, dim, max_degree=2, terms=2, span=3):
    out = {}
    for _ in range(terms):
        e = [0] * dim
        for _ in range(shape.randint(0, max_degree)):
            e[shape.randrange(dim)] += 1
        # randint(-span, span): zero-or-not and the size from the shape stream, the sign from rng
        c = shape.randint(1, span) * rng.choice((-1, 1)) if shape.randrange(2 * span + 1) else 0
        out[tuple(e)] = out.get(tuple(e), 0) + Fraction(c)
    return Poly(dim, {k: v for k, v in out.items() if v})


def rand_diffop1(shape, rng, dim, max_order=2, max_degree=2, nterms=2, unital=True):
    """Random arity-1 operator; unital means no order-0 part (R(1) = 0)."""
    terms = {}
    for _ in range(nterms):
        a = [0] * dim
        lo = 1 if unital else 0
        for _ in range(shape.randint(lo, max_order)):
            a[shape.randrange(dim)] += 1
        if unital and sum(a) == 0:
            a[shape.randrange(dim)] += 1
        p = rand_poly(shape, rng, dim, max_degree, terms=1)
        if not p.is_zero():
            terms[(tuple(a),)] = p
    return PolyDiffOp(dim, 1, terms)


def rand_gauge(shape, rng, dim, order, max_order=2, max_degree=2):
    """The distribution of rand_gauge in tests/conftest.py, with its draws
    split over two streams.  `shape` draws the structure: which derivatives
    and which coordinate monomials each term has, and the size of each
    coefficient, zero included.  `rng` draws the signs.  The cost of a gauge
    job is set by its structure and the sizes of the rationals it multiplies,
    so feeding `shape` from a fixed seed gives every --seed and every pass
    the same job sizes."""
    return GaugeOp(dim, order, [rand_diffop1(shape, rng, dim, max_order, max_degree) for _ in range(order)])


def shape_stream(label):
    return random.Random(f"dq-kit bench shapes/{label}")


def value_stream(seed, pass_no):
    """Coefficient signs of one pass."""
    return random.Random(f"dq-kit bench values/{seed}/{pass_no}")


def symplectic_pi(n):
    """The constant bivector sum dx_{2i-1} ^ dx_{2i} (odd n leaves x_n central)."""
    return MultiVec(n, 2, {(2 * i + 1, 2 * i + 2): 1 for i in range(n // 2)})


def poly_of_degree(shape, rng, n, deg):
    """One monomial of total degree exactly `deg` plus one of lower degree.
    `shape` picks the monomials and the size of their coefficients, `rng`
    the signs: the exact solve's cost follows the size of the rationals it
    eliminates, and drawn from the seed that size moved a job's cost by up to
    1.8x between seeds."""
    top = [0] * n
    for _ in range(deg):
        top[shape.randrange(n)] += 1
    terms = {tuple(top): Fraction(shape.randint(1, 3), shape.choice([1, 2])) * rng.choice([-1, 1])}
    low = [0] * n
    for _ in range(shape.randint(0, deg - 1) if deg else 0):
        low[shape.randrange(n)] += 1
    terms[tuple(low)] = terms.get(tuple(low), 0) + shape.randint(1, 3) * rng.choice([-1, 1])
    return Poly(n, {k: v for k, v in terms.items() if v})


def second_order_gauge(shape, rng, n, order, coeff_degree, nterms=2):
    """A gauge whose R_1 is second order with coefficients of the given degree,
    like corpus/gauge_halfdx2.json; gauging a special product by it makes P_1
    non-special, and undoing that needs a Hochschild solve at that degree.
    As in rand_gauge, `shape` draws the structure and `rng` the values."""
    terms = {}
    while len(terms) < nterms:
        a = [0] * n
        for _ in range(2):
            a[shape.randrange(n)] += 1
        terms[(tuple(a),)] = poly_of_degree(shape, rng, n, coeff_degree)
    R1 = PolyDiffOp(n, 1, terms)
    return GaugeOp(n, order, [R1] + [PolyDiffOp.zero(n, 1)] * (order - 1))


def so3_sum(shape, rng, copies):
    """A linear Poisson structure so3 + ... + so3 on R^(3*copies): each copy
    has its own nonzero scale.  `shape` permutes the coordinates and sizes
    the scales, `rng` draws their signs."""
    n = 3 * copies
    perm = list(range(1, n + 1))
    shape.shuffle(perm)
    terms = {}
    for b in range(copies):
        lam = Fraction(shape.choice([1, 2, 3]), shape.choice([1, 2, 3])) * rng.choice((-1, 1))
        x, y, z = perm[3 * b : 3 * b + 3]
        X, Y, Z = (Poly.variable(n, v) * lam for v in (x, y, z))
        for (i, j), c in (((x, y), Z), ((x, z), -Y), ((y, z), X)):
            if i > j:
                i, j, c = j, i, -c
            terms[(i, j)] = c
    return MultiVec(n, 2, terms)


def _shuffled(jobs, rng):
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return [jobs[i] for i in order]


# ----------------------------------------------------------------------
# gauge_roundtrip


# (n, N, jobs per pool).  On a 2-core x86 VM the jobs take 0.03-1 CPU
# seconds; (4,4) and (2,5) jobs reach 5 s and are left out.  A pass over the
# pool takes about 5 s there, so a 35 s run makes six or more passes.
GAUGE_CLASSES = ((2, 3, 5), (4, 3, 6), (2, 4, 2), (6, 3, 2))


def _gauge_job(key, S, pi_S, R, seeded):
    def run():
        Sp = starprod.gauge_transform(S, R)
        defects = starprod.assoc_defect(Sp)
        back = starprod.gauge_transform(Sp, starprod.invert_gauge(R))
        return Sp, defects, back, starprod.assoc_poisson(Sp)

    def check(result):
        Sp, defects, back, pi_Sp = result
        _require(all(D.is_zero() for D in defects), "gauged product is not associative")
        _require(back == S, "gauge round trip does not return the original product")
        _require(pi_Sp == pi_S, "associated Poisson bivector changed under the gauge")
        return canon_text(Sp)

    return Job(key, run, check, seeded)


def _assoc_job(key, Sp, named):
    def run():
        return starprod.assoc_defect(Sp)

    def check(defects):
        _require(all(D.is_zero() for D in defects), "gauged product is not associative")
        return canon_text(Sp)

    return Job(key, run, check, seeded=False, named=named)


def gauge_roundtrip(seed):
    bases = {}
    for n, N, _ in GAUGE_CLASSES:
        S = starprod.moyal(symplectic_pi(n), N)
        bases[n, N] = S, starprod.assoc_poisson(S)
    # ROADMAP baseline: assoc_defect of a randomly gauged Moyal product, n=2, N=5
    fixed = random.Random(ROADMAP_SEED)
    Sp5 = starprod.gauge_transform(starprod.moyal(symplectic_pi(2), 5), rand_gauge(fixed, fixed, 2, 5))

    def make_pool(pass_no):
        rng = value_stream(seed, pass_no)
        jobs = []
        for n, N, count in GAUGE_CLASSES:
            S, pi_S = bases[n, N]
            shape = shape_stream(f"gauge n{n} N{N}")
            for i in range(count):
                jobs.append(_gauge_job(f"n{n}N{N}#{i}", S, pi_S, rand_gauge(shape, rng, n, N), seeded=True))
        jobs.append(_assoc_job("roadmap:assoc_defect_n2N5", Sp5, "assoc_defect gauged n=2 N=5"))
        return _shuffled(jobs, random.Random(seed))

    return Workload("gauge_roundtrip", make_pool)


# ----------------------------------------------------------------------
# hochschild_solve


# (n, degree bound, jobs, of which failing).  A failing job gauges by
# coefficients one degree above the bound, so the solve is inconsistent.
# CPU seconds per job: about 0.12, 0.28, 0.6 and 0.65 for the four classes.
# The counts put the median job inside the (3, 4) group and keep a pass over
# the pool near 3.5 s, so a 35 s run makes nine passes.
HOCHSCHILD_CLASSES = ((3, 3, 2, 1), (3, 4, 4, 1), (3, 5, 1, 0), (4, 3, 1, 0))


def _special_job(key, S, bound, expect_solution, seeded, named=None):
    def run():
        try:
            G = starprod.specialize(S, bound)
        except SolveError as exc:
            return "no solution", exc.residual
        return "solved", G, starprod.is_special(starprod.gauge_transform(S, G))

    def check(result):
        if expect_solution:
            _require(result[0] == "solved", "specialize found no solution within the bound")
            _require(result[2], "gauge returned by specialize does not make the product special")
            return canon_text(result[1])
        _require(result[0] == "no solution", "specialize solved an inconsistent system")
        residual = result[1]
        _require(isinstance(residual, PolyDiffOp) and not residual.is_zero(),
                 "SolveError carries no nonzero residual")
        return canon_text(residual)

    return Job(key, run, check, seeded, named)


def hochschild_solve(seed):
    # ROADMAP baseline: specialize(., 2) for n=4, N=4, gauged by x2 d1^2
    R1 = PolyDiffOp(4, 1, {((2, 0, 0, 0),): Poly.variable(4, 2)})
    S4 = starprod.gauge_transform(starprod.moyal(symplectic_pi(4), 4),
                                  GaugeOp(4, 4, [R1] + [PolyDiffOp.zero(4, 1)] * 3))
    bases = {n: starprod.moyal(symplectic_pi(n), 2) for n in {c[0] for c in HOCHSCHILD_CLASSES}}

    def make_pool(pass_no):
        rng = value_stream(seed, pass_no)
        jobs = []
        for n, bound, count, failing in HOCHSCHILD_CLASSES:
            shape = shape_stream(f"hochschild n{n} b{bound}")
            for i in range(count):
                solvable = i >= failing
                degree = shape.randint(1, bound) if solvable else bound + 1
                S = starprod.gauge_transform(bases[n], second_order_gauge(shape, rng, n, 2, degree))
                jobs.append(_special_job(f"n{n}b{bound}#{i}", S, bound, solvable, seeded=True))
        jobs.append(_special_job("roadmap:specialize_n4N4", S4, 2, True, False,
                                 named="specialize n=4 N=4 degree 2"))
        return _shuffled(jobs, random.Random(seed))

    return Workload("hochschild_solve", make_pool)


# ----------------------------------------------------------------------
# corpus_cli: documents on disk, reports checked by exit code and hash


CORPUS = "corpus"

# Every command that applies to each shipped corpus document, with the exit
# code it must give (1 for the negative controls).
CORPUS_COMMANDS = (
    [(["parse"], name, 0) for name in (
        "algebroid_so3", "badstar", "bundle", "bundle_empty", "bundle_tampered_assoc",
        "bundle_tampered_p2", "bundle_tampered_qc", "gauge_halfdx2", "gauge_xi",
        "kappa_plane", "moyal_plane", "moyal_r3", "pi_bad", "pi_rank4", "pi_std",
        "qc_bad", "qc_plane", "qc_r3", "so3")]
    + [(["poisson", "check"], name, 1 if name == "pi_bad" else 0)
       for name in ("pi_std", "so3", "pi_bad", "pi_rank4")]
    + [(["algebroid", "from-poisson"], name, 0) for name in ("pi_std", "so3", "pi_bad", "pi_rank4")]
    + [(["star", "moyal"], name, 0) for name in ("pi_std", "pi_rank4")]
    + [(["star", action], name, 1 if name == "badstar" and action != "poisson" else 0)
       for name in ("moyal_plane", "moyal_r3", "badstar")
       for action in ("assoc", "poisson", "specialize")]
    + [(["star", "invert"], name, 0) for name in ("gauge_halfdx2", "gauge_xi")]
    + [(["mc"], name, 1 if name == "qc_bad" else 0) for name in ("qc_plane", "qc_r3", "qc_bad")]
    + [(["algebroid", "check"], "algebroid_so3", 0), (["kappa"], "kappa_plane", 0)]
    + [(["verify"], name, 1 if "tampered" in name else 0) for name in (
        "bundle", "bundle_empty", "bundle_tampered_assoc", "bundle_tampered_p2",
        "bundle_tampered_qc", "kappa_plane")]
)


def report_check(expected_code, payload_check=None):
    """Oracle for a CLI report: exit code, a self-consistent canonical hash
    (recomputed here from the report body) and, optionally, the payload."""

    def check(result):
        code, out = result
        _require(code == expected_code, f"exit code {code}, expected {expected_code}: {out[-300:]!r}")
        try:
            report = json.loads(out)
        except ValueError:
            raise OracleFailure(f"report is not JSON: {out[-300:]!r}") from None
        body = {k: report.get(k) for k in ("command", "ok", "payload", "defects")}
        digest = sha256(json.dumps(body, sort_keys=True, indent=2) + "\n")
        _require(report.get("canonical_sha256") == digest, "canonical_sha256 does not match the report body")
        _require(report["ok"] == (expected_code == 0), "report ok flag disagrees with the exit code")
        if payload_check is not None:
            payload_check(report["payload"])
        return digest

    return check


def dispatch_in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dq_cli.dispatch(argv)
    return code, buf.getvalue()


def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(parser.serialize_document(doc))
    return path


def _cli_job(key, argv, expected_code, seeded, payload_check=None, named=None):
    return Job(key, lambda: dispatch_in_process(argv), report_check(expected_code, payload_check),
               seeded, named)


def _payload_equals(want, what):
    def check(payload):
        _require(payload == want, f"{what} differs from the expected payload")
    return check


# Gauge structures for the n=6, N=4 star documents: with these the documents
# are 353, 181, 298 and 212 kB on every seed (other structures reach 1.5 MB).
STAR6_STRUCTURES = (2, 3, 8, 14)


def _generated_documents(rng, workdir, stars, sums):
    """Large gauged star documents and so3 sums, written to workdir.
    Returns (key, argv, payload check) triples for the commands run on them."""
    out = []
    S6 = starprod.moyal(symplectic_pi(6), 4)
    pi6 = parser.tensor_to_payload(symplectic_pi(6))
    for i in range(stars):
        shape = shape_stream(f"star6 #{STAR6_STRUCTURES[i]}")
        Sp = starprod.gauge_transform(S6, rand_gauge(shape, rng, 6, 4))
        doc = Document("star", 6, 4, Sp)
        path = _write(workdir, f"star6_{i}.json", doc)
        obj = parser.document_to_obj(doc)
        out.append((f"gen:parse:star6#{i}", ["parse", "--in", path], _payload_equals(obj, "re-serialized document")))
        out.append((f"gen:star-poisson:star6#{i}", ["star", "poisson", "--in", path],
                    _payload_equals(pi6, "associated Poisson bivector")))
    for i in range(sums):
        pi = so3_sum(shape_stream(f"so3x3 #{i}"), rng, 3)
        path = _write(workdir, f"so3x3_{i}.json", Document("multivec", 9, None, pi))
        out.append((f"gen:poisson-check:so3x3#{i}", ["poisson", "check", "--in", path],
                    _payload_equals({"poisson": True}, "Poisson check")))
        # d_pi(pi) = [pi, pi] = 0 is the Poisson condition by a second route
        bundle = Document("bundle", 0, None, {"pi": Document("multivec", 9, None, pi),
                                             "a": Document("multivec", 9, None, pi)})
        path = _write(workdir, f"so3x3_dpi_{i}.json", bundle)
        out.append((f"gen:poisson-dpi:so3x3#{i}", ["poisson", "dpi", "--in", path],
                    _payload_equals({"degree": 3, "terms": []}, "d_pi(pi)")))
        alg = liealgebroid.from_poisson(pi)
        path = _write(workdir, f"so3x3_alg_{i}.json", Document("algebroid", 9, None, alg))
        out.append((f"gen:algebroid-check:so3x3#{i}", ["algebroid", "check", "--in", path],
                    _payload_equals({"algebroid": True}, "algebroid check")))
    return out


def corpus_cli(seed, workdir):
    corpus_jobs = []
    for cmd, name, code in CORPUS_COMMANDS:
        key = f"corpus:{'-'.join(cmd)}:{name}"
        named = "verify corpus/bundle.json in-process" if key == "corpus:verify:bundle" else None
        argv = cmd + ["--in", os.path.join(CORPUS, name + ".json")]
        corpus_jobs.append(_cli_job(key, argv, code, False, named=named))

    def make_pool(pass_no):
        passdir = os.path.join(workdir, f"pass{pass_no}")
        os.makedirs(passdir, exist_ok=True)
        generated = _generated_documents(value_stream(seed, pass_no), passdir, stars=4, sums=3)
        jobs = corpus_jobs + [_cli_job(key, argv, 0, True, check) for key, argv, check in generated]
        return _shuffled(jobs, random.Random(seed))

    return Workload("corpus_cli", make_pool, workdir)


# ----------------------------------------------------------------------
# child processes


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, root, env):
    """Run one child to completion; returns (exit code, output, CPU seconds)
    with the child's own resource usage from wait4."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), usage.ru_utime + usage.ru_stime


def verify_subprocess_job(root):
    """ROADMAP baseline: verify corpus/bundle.json as a fresh
    `python -m dqkit.cli` process, as a user's shell call runs it."""
    cmd = [sys.executable, "-m", "dqkit.cli", "verify", "--in", os.path.join(CORPUS, "bundle.json")]
    env = child_env(root)

    def run():
        code, out, _ = run_child(cmd, root, env)
        return code, out

    return Job("roadmap:verify_bundle_subprocess", run, report_check(0), seeded=False,
               named="verify corpus/bundle.json subprocess")


# ----------------------------------------------------------------------
# the layer probe: one tiny call into every traced function


def layer_probe(workdir):
    """A job that calls every traced public function once on tiny inputs, so
    every per-layer metric is measured on every workload.  It runs once, after
    the traced pass, and is a negligible share of the traced time."""
    pi2 = symplectic_pi(2)
    S = starprod.gauge_transform(
        starprod.moyal(pi2, 1),
        GaugeOp(2, 1, [PolyDiffOp(2, 1, {((2, 0),): Poly.variable(2, 2)})]),
    )
    tiny = parser.serialize_document(Document("multivec", 2, None, pi2))
    path = os.path.join(workdir, "probe_pi.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tiny)
    x = kernel.TPoly.from_poly(Poly.variable(2, 1), 1)
    qc = qclimit.QCData(2, 1, [pi2], Form.zero(2, 3))

    def run():
        return [
            x * x,
            diffop.apply_op(S.op(1), x.coeffs[0], x.coeffs[0]),
            starprod.specialize(S, 1),
            starprod.invert_gauge(GaugeOp(2, 1, [PolyDiffOp.partial(2, 1)])),
            parser.parse_document(tiny).payload,
            dispatch_in_process(["poisson", "check", "--in", path]),
            poisson.lichnerowicz_d(pi2, pi2),
            liealgebroid.check_algebroid(liealgebroid.from_poisson(pi2)).ok,
            qclimit.mc_defect(qc),
        ]

    cli_check = report_check(0, _payload_equals({"poisson": True}, "probe Poisson check"))

    def check(result):
        return canon_text(result[:5] + [cli_check(result[5])] + result[6:])

    return Job("probe", run, check, seeded=False)


WORKLOADS = ("gauge_roundtrip", "hochschild_solve", "corpus_cli")


def build(name, seed, workdir):
    if name == "gauge_roundtrip":
        wl = gauge_roundtrip(seed)
    elif name == "hochschild_solve":
        wl = hochschild_solve(seed)
    elif name == "corpus_cli":
        wl = corpus_cli(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.workdir = workdir
    return wl
