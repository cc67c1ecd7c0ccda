"""Regenerate the shipped corpus documents under corpus/.

Run from the repository root:  python tools/make_corpus.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fractions import Fraction

from dqkit.calculus import Form, MultiVec
from dqkit.diffop import PolyDiffOp
from dqkit.kernel import Poly
from dqkit.parser import Document, serialize_document
from dqkit.qclimit import QCData
from dqkit.starprod import GaugeOp, StarProduct, moyal, multiderivation
from dqkit.liealgebroid import from_poisson

OUT = os.path.join(os.path.dirname(__file__), "..", "corpus")


def write(name, doc):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_document(doc))
    print("wrote", name)


def bundle(entries):
    return Document("bundle", 0, None, entries)


def main():
    os.makedirs(OUT, exist_ok=True)

    pi_std = MultiVec(2, 2, {(1, 2): 1})
    pi_std3 = MultiVec(3, 2, {(1, 2): 1})
    x3, y3, z3 = (Poly.variable(3, i) for i in (1, 2, 3))
    pi_so3 = MultiVec(3, 2, {(1, 2): z3, (1, 3): -y3, (2, 3): x3})
    pi_bad = MultiVec(3, 2, {(1, 2): Poly.one(3), (2, 3): y3})
    pi_rank4 = MultiVec(4, 2, {(1, 2): 1, (3, 4): 1})

    doc_pi_std = Document("multivec", 2, None, pi_std)
    doc_pi_so3 = Document("multivec", 3, None, pi_so3)
    doc_pi_bad = Document("multivec", 3, None, pi_bad)
    doc_pi_rank4 = Document("multivec", 4, None, pi_rank4)
    write("pi_std.json", doc_pi_std)
    write("so3.json", doc_pi_so3)
    write("pi_bad.json", doc_pi_bad)
    write("pi_rank4.json", doc_pi_rank4)

    # star products
    S_plane = moyal(pi_std, 3)
    doc_plane = Document("star", 2, 3, S_plane)
    write("moyal_plane.json", doc_plane)
    S_r3 = moyal(pi_std3, 2)
    doc_r3 = Document("star", 3, 2, S_r3)
    write("moyal_r3.json", doc_r3)

    # a star product that fails associativity at order 2:
    # P_1 = dx (x) dx (a symmetric cocycle), P_2 = 0
    bad_P1 = PolyDiffOp(2, 2, {((1, 0), (1, 0)): 1})
    bad_star = Document("star", 2, 2, StarProduct(2, 2, [bad_P1, PolyDiffOp.zero(2, 2)]))
    write("badstar.json", bad_star)

    # gauges
    halfdx2 = PolyDiffOp(2, 1, {((2, 0),): Fraction(1, 2)})
    G_q = GaugeOp(2, 3, [halfdx2, PolyDiffOp.zero(2, 1), PolyDiffOp.zero(2, 1)])
    write("gauge_halfdx2.json", Document("gauge", 2, 3, G_q))
    xi = MultiVec(2, 1, {(1,): Poly.variable(2, 1)})
    G_xi = GaugeOp(2, 3, [multiderivation(xi), halfdx2, PolyDiffOp.zero(2, 1)])
    write("gauge_xi.json", Document("gauge", 2, 3, G_xi))

    # quasi-classical data
    qc_plane = QCData(2, 1, [pi_std], Form.zero(2, 3))
    write("qc_plane.json", Document("qc", 2, 1, qc_plane))
    qc_r3 = QCData(3, 1, [pi_std3], Form(3, 3, {(1, 2, 3): 1}))
    write("qc_r3.json", Document("qc", 3, 1, qc_r3))
    qc_bad = QCData(3, 1, [pi_bad], Form.zero(3, 3))
    write("qc_bad.json", Document("qc", 3, 1, qc_bad))

    # kappa input: plane data with curving B = x dx^dy
    B = Form(2, 2, {(1, 2): Poly.variable(2, 1)})
    write(
        "kappa_plane.json",
        bundle({"qc": Document("qc", 2, 1, qc_plane), "B": Document("form", 2, None, B)}),
    )

    # algebroid documents
    write("algebroid_so3.json", Document("algebroid", 3, None, from_poisson(pi_so3)))

    # the shipped all-green bundle
    good = bundle(
        {
            "pi_std": doc_pi_std,
            "pi_so3": doc_pi_so3,
            "pi_rank4": doc_pi_rank4,
            "moyal_plane": doc_plane,
            "moyal_r3": doc_r3,
            "gauge_halfdx2": Document("gauge", 2, 3, G_q),
            "gauge_xi": Document("gauge", 2, 3, G_xi),
            "qc_plane": Document("qc", 2, 1, qc_plane),
            "qc_r3": Document("qc", 3, 1, qc_r3),
            "algebroid_so3": Document("algebroid", 3, None, from_poisson(pi_so3)),
            "f_example": Document("poly", 2, None, Poly.variable(2, 1) * Poly.variable(2, 2)),
        }
    )
    write("bundle.json", good)

    # negative controls (each must exit 1 under `dqkit verify`)
    # 1) Moyal on R^3 with P_2 tampered by a closed-breaking skew term x*(d1 (x) d3 - d3 (x) d1)
    x4 = Poly.variable(3, 1)
    tamper = PolyDiffOp(
        3, 2, {((1, 0, 0), (0, 0, 1)): x4, ((0, 0, 1), (1, 0, 0)): -x4}
    )
    S_t = StarProduct(3, 2, [S_r3.op(1), S_r3.op(2) + tamper])
    write(
        "bundle_tampered_p2.json",
        bundle({"moyal_r3_tampered": Document("star", 3, 2, S_t)}),
    )
    # 2) associativity failure
    write("bundle_tampered_assoc.json", bundle({"badstar": bad_star}))
    # 3) Maurer-Cartan failure
    write("bundle_tampered_qc.json", bundle({"qc_bad": Document("qc", 3, 1, qc_bad)}))
    # empty bundle (vacuous ok)
    write("bundle_empty.json", bundle({}))


if __name__ == "__main__":
    main()
