"""Golden report hashes: every listed CLI run keeps its exit code and canonical_sha256.

The table was recorded once and is never regenerated by a refactor: a change
that alters any report's canonical content (payload, defects, error text and
paths) fails here.  ``timing_ms`` is outside the hash, so the table does not
depend on the machine.
"""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from dqkit.cli import dispatch
from dqkit.kernel import Poly
from oracles import canonical_json_reference

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _load(name):
    with open(os.path.join(CORPUS, name)) as fh:
        return json.load(fh)


def _form(dim, terms, degree=None):
    payload = terms if degree is None else {"degree": degree, "terms": terms}
    return {"kind": "form", "dim": dim, "payload": payload}


def _bundle(**entries):
    return {"kind": "bundle", "payload": entries}


def _poly(dim, expr):
    return {"kind": "poly", "dim": dim, "payload": expr}


def _mv(dim, terms):
    return {"kind": "multivec", "dim": dim, "payload": terms}


def _diffop(dim, arity, terms):
    return {"kind": "diffop", "dim": dim, "payload": {"arity": arity, "terms": terms}}


# rank 1 on R^2: frame index 2 is inside dim but above rank
_RANK1_ON_PLANE = {"kind": "algebroid", "dim": 2, "payload": {"rank": 1, "anchor": [["1", "0"]]}}
# rank 2 on R^1: frame index 2 is inside rank but above dim
_RANK2_ON_LINE = {"kind": "algebroid", "dim": 1, "payload": {"rank": 2, "anchor": [["1"], ["0"]]}}
_GAUGE_ID = {"kind": "gauge", "dim": 2, "order": 3,
             "payload": {"R": [{"arity": 1, "terms": []} for _ in range(3)]}}
# the zero gauge at order 2, and the zero vector field, on R^2
_ZERO_GAUGE2 = {"kind": "gauge", "dim": 2, "order": 2,
                "payload": {"R": [{"arity": 1, "terms": []} for _ in range(2)]}}
_ZERO_FIELD = {"kind": "multivec", "dim": 2, "payload": {"degree": 1, "terms": []}}
# x + y t, a t-series of order 1 on R^2
_SERIES = {"kind": "poly", "dim": 2, "order": 1, "payload": ["x", "y"]}

# documents built in the test (the first two are the bundles the CLI action tests use)
BUNDLES = {
    "d_so3": _bundle(
        algebroid=_load("algebroid_so3.json"),
        omega=_form(3, [{"indices": [1], "coeff": "x"}]),
    ),
    "ext_so3": _bundle(
        algebroid=_load("algebroid_so3.json"),
        twist=_form(3, [], degree=2),
        lam=_form(3, [{"indices": [2], "coeff": "x"}]),
    ),
    "d_index_above_rank": _bundle(
        algebroid=_RANK1_ON_PLANE,
        omega=_form(2, [{"indices": [2], "coeff": "1"}]),
    ),
    "d_two_indices_above_rank": _bundle(
        algebroid={"kind": "algebroid", "dim": 3, "payload": {"rank": 1, "anchor": [["1", "0", "0"]]}},
        omega=_form(3, [{"indices": [3], "coeff": "1"}, {"indices": [2], "coeff": "x"}]),
    ),
    "ext_lam_index_above_rank": _bundle(
        algebroid=_RANK1_ON_PLANE,
        twist=_form(2, [], degree=2),
        lam=_form(2, [{"indices": [2], "coeff": "x"}]),
    ),
    "ext_twist_not_closed": _bundle(
        algebroid=_load("algebroid_so3.json"),
        twist=_form(3, [{"indices": [1, 2], "coeff": "x"}]),
        lam=_form(3, [{"indices": [2], "coeff": "x"}]),
    ),
    # a power whose term bound (80,601) is above the parser's budget, and one just under it (990)
    "power_over_budget": _poly(2, "(x1+x2+1)^400"),
    "power_under_budget": _poly(2, "(x1+x2+1)^43"),
    # a one-term power whose coefficient bound 2^100000000 is above the bit budget
    "power_over_bit_budget": _poly(2, "(2*x1)^100000000"),
    # an integer literal of 5,000 digits, above parser.MAX_INT_DIGITS = 4300
    "literal_over_digit_limit": _poly(1, "x1 + " + "7" * 5000),
    # each power is inside the term and bit budgets, but the first, x1^(2^4000), is already far
    # above kernel.MAX_PACKED = 32767 and refused before it multiplies
    "exponent_over_digit_limit": _poly(1, "(((x1^(2^4000))^(2^4000))^(2^4000))^(2^4000)"),
    # eight factors of 84 terms each: the third may make C(9 + 6, 6) = 5005 terms, so the
    # second '*' is refused before it multiplies (this document ran out a 25 s timeout unbounded)
    "product_over_budget": _poly(6, "*".join(["(x1+x2+x3+x4+x5+x6+1)^3"] * 8)),
    # x1^(10^4300 - 1) * x1: the leaf reader leaves it to the grammar, which refuses the power
    # x1^(10^4300 - 1) above kernel.MAX_PACKED, named by its bit length
    "exponent_product_over_digit_limit": _poly(1, "x1^" + "9" * 4300 + "*x1"),
    # the largest exponent a polynomial may hold, and one far above it
    "exponent_at_packed_budget": _poly(1, "x1^32767"),
    "exponent_over_packed_budget": _poly(1, "x1^1000000000"),
    "d_index_above_dim": _bundle(
        algebroid=_RANK2_ON_LINE,
        omega=_form(1, [{"indices": [2], "coeff": "1"}]),
    ),
    # one run of each remaining action
    "bracket_so3": _bundle(pi=_load("so3.json"), f=_poly(3, "x*y"), g=_poly(3, "z^2 + x")),
    "dpi_plane": _bundle(pi=_load("pi_std.json"), a=_mv(2, [{"indices": [1], "coeff": "x^2*y"}])),
    "koszul_so3": _bundle(
        pi=_load("so3.json"),
        alpha=_form(3, [{"indices": [1], "coeff": "y"}]),
        beta=_form(3, [{"indices": [3], "coeff": "x"}]),
    ),
    "hamiltonian_so3": _bundle(pi=_load("so3.json"), f=_poly(3, "x*y + z")),
    # d_Pi in every degree and on a non-Poisson bivector; ext-curv with a nonzero twist
    "dpi_so3_bivector": _bundle(pi=_load("so3.json"), a=_mv(3, [{"indices": [1, 2], "coeff": "x*z"},
                                                                 {"indices": [2, 3], "coeff": "y^2 + 1"}])),
    "dpi_bad_self": _bundle(pi=_load("pi_bad.json"), a=_load("pi_bad.json")),
    "dpi_degree0": _bundle(pi=_load("so3.json"), a=_mv(3, {"degree": 0, "terms": [{"indices": [], "coeff": "x*y + z"}]})),
    "dpi_r4_trivector": _bundle(
        pi=_mv(4, [{"indices": [1, 2], "coeff": "x1*x2"}, {"indices": [1, 3], "coeff": "x4"},
                   {"indices": [3, 4], "coeff": "x3^2 - x1"}]),
        a=_mv(4, [{"indices": [1, 2, 3], "coeff": "x4"}, {"indices": [2, 3, 4], "coeff": "x1^2"}]),
    ),
    "ext_plane_twist": _bundle(
        algebroid={"kind": "algebroid", "dim": 2, "payload": {"rank": 2, "anchor": [["1", "0"], ["0", "1"]]}},
        twist=_form(2, [{"indices": [1, 2], "coeff": "x*y"}]),
        lam=_form(2, [{"indices": [1], "coeff": "y^2"}, {"indices": [2], "coeff": "x"}]),
    ),
    # a degree-1 pi is refused whatever f is
    "hamiltonian_degree1_const": _bundle(pi=_mv(2, [{"indices": [1], "coeff": "x"}]), f=_poly(2, "5")),
    "apply_plane": _bundle(
        op=_diffop(2, 2, [{"coeff": "x", "orders": [[1, 0], [0, 1]]},
                          {"coeff": "-1/3", "orders": [[0, 2], [0, 0]]}]),
        f1=_poly(2, "x^2*y^3"),
        f2=_poly(2, "x*y"),
    ),
    "compose_plane": _bundle(
        outer=_diffop(2, 2, [{"coeff": "y", "orders": [[1, 0], [0, 1]]}]),
        inner=_diffop(2, 1, [{"coeff": "x^2", "orders": [[0, 1]]}]),
    ),
    "delta_plane": _diffop(2, 1, [{"coeff": "x*y", "orders": [[2, 1]]}]),
    # x1^32768 is one above kernel.MAX_PACKED: refused when the operator is read
    "compose_over_packed_budget": _bundle(
        outer=_diffop(1, 1, [{"coeff": "1", "orders": [[1]]}]),
        inner=_diffop(1, 1, [{"coeff": "x1^32768", "orders": [[0]]}]),
    ),
    # x1^3000000 and d^3,000,000 are far above kernel.MAX_PACKED: f1, read first, is refused,
    # before the falling factorial 3,000,000! that applying d^3,000,000 to it would build
    "apply_over_packed_budget": _bundle(
        op=_diffop(1, 1, [{"coeff": "1", "orders": [[3000000]]}]),
        f1=_poly(1, "x1^3000000"),
    ),
    # algebroid checks that fail: sigma(e_2) = x1 d/dx1 with [e_1, e_2] = 0 breaks the anchor
    # axiom at (1, 2); a zero anchor with [e_1, e_2] = e_3, [e_2, e_3] = e_2 breaks Jacobi
    "check_anchor_fails": {"kind": "algebroid", "dim": 1, "payload": {"rank": 2, "anchor": [["1"], ["x1"]]}},
    "check_jacobi_fails": {"kind": "algebroid", "dim": 1, "payload": {
        "rank": 3, "anchor": [["0"], ["0"], ["0"]],
        "structure": [{"pair": [1, 2], "coeffs": ["0", "0", "1"]}, {"pair": [2, 3], "coeffs": ["0", "1", "0"]}]}},
    # d^3000 o x1^3000 is under the packing budget, but its coefficient 3000! has 9,131
    # digits: refused when it is written, not ended in a traceback
    "compose_over_digit_limit": _bundle(
        outer=_diffop(1, 1, [{"coeff": "1", "orders": [[3000]]}]),
        inner=_diffop(1, 1, [{"coeff": "x1^3000", "orders": [[0]]}]),
    ),
    "cocycle_not_closed": _diffop(2, 2, [{"coeff": "x", "orders": [[1, 0], [0, 0]]}]),
    # an order-0 term beside a mixed higher-order term: delta keeps the -(x - 2/3) f g
    # term of the zero slot and every proper split of d_x d_y^2
    "delta_order0_mixed": _diffop(2, 1, [{"coeff": "x - 2/3", "orders": [[0, 0]]},
                                         {"coeff": "x*y/2", "orders": [[1, 2]]}]),
    # an order-0 slot on each side, and a term of order 0 in both slots
    "cocycle_order0_slots": _diffop(2, 2, [{"coeff": "y^2", "orders": [[0, 0], [2, 1]]},
                                           {"coeff": "x - 1/2", "orders": [[1, 1], [0, 0]]},
                                           {"coeff": "3/4", "orders": [[0, 0], [0, 0]]}]),
    # the Moyal plane gauged by R_1 = d_x^2 / 2, truncated at t^2: not special
    "star_gauged_halfdx2": {"kind": "star", "dim": 2, "order": 2, "payload": {"P": [
        {"arity": 2, "terms": [{"coeff": c, "orders": o} for c, o in [
            ("-1/2", [[0, 1], [1, 0]]), ("1/2", [[1, 0], [0, 1]]), ("-1", [[1, 0], [1, 0]])]]},
        {"arity": 2, "terms": [{"coeff": c, "orders": o} for c, o in [
            ("1/8", [[0, 2], [2, 0]]), ("1/2", [[1, 0], [3, 0]]), ("-1/4", [[1, 1], [1, 1]]),
            ("1/2", [[1, 1], [2, 0]]), ("1/8", [[2, 0], [0, 2]]), ("-1/2", [[2, 0], [1, 1]]),
            ("5/4", [[2, 0], [2, 0]]), ("1/2", [[3, 0], [1, 0]])]]},
    ]}},
    # the Moyal plane gauged by R_1 = x2 d_x^2 + x1 d_x d_y + d_y^2 / 2, truncated at t^1: sym(P_1)
    # needs coefficient degree 1, so at degree 0 only its d_y^2 part is solved and the rest is the residual
    # the Moyal P_1 with a P_2 and a P_3 that break associativity at orders 2 and 3; P_3
    # has an order-0 slot
    "star_nonassoc_order3": {"kind": "star", "dim": 2, "order": 3, "payload": {"P": [
        {"arity": 2, "terms": [{"coeff": "1/2", "orders": [[1, 0], [0, 1]]},
                               {"coeff": "-1/2", "orders": [[0, 1], [1, 0]]}]},
        {"arity": 2, "terms": [{"coeff": "x/3", "orders": [[1, 0], [1, 0]]},
                               {"coeff": "-1/4", "orders": [[0, 2], [0, 1]]}]},
        {"arity": 2, "terms": [{"coeff": "y^2 - 1/5", "orders": [[0, 0], [1, 1]]},
                               {"coeff": "2/7", "orders": [[2, 0], [0, 1]]}]}]}},
    "star_gauged_degree1": {"kind": "star", "dim": 2, "order": 1, "payload": {"P": [
        {"arity": 2, "terms": [{"coeff": c, "orders": o} for c, o in [
            ("-1", [[0, 1], [0, 1]]), ("-x1 - 1/2", [[0, 1], [1, 0]]), ("-x1 + 1/2", [[1, 0], [0, 1]]),
            ("-2*x2", [[1, 0], [1, 0]])]]},
    ]}},
    "gauge_plane": _bundle(star=_load("moyal_plane.json"), gauge=_load("gauge_xi.json")),
    # the Moyal plane gauged by R_1 = x - 1/2 + x y d_x d_y, R_2 = 0 and R_3 = 2/3 + y d_y: gauge
    # terms of order 0, whose coboundary keeps the (f g) term, and a zero R_k
    "gauge_order0": _bundle(star=_load("moyal_plane.json"), gauge={"kind": "gauge", "dim": 2, "order": 3, "payload": {
        "R": [{"arity": 1, "terms": [{"coeff": "x - 1/2", "orders": [[0, 0]]}, {"coeff": "x*y", "orders": [[1, 1]]}]},
              {"arity": 1, "terms": []},
              {"arity": 1, "terms": [{"coeff": "2/3", "orders": [[0, 0]]}, {"coeff": "y", "orders": [[0, 1]]}]}]}}),
    "section_identity": _bundle(star=_load("moyal_plane.json"), gauge=_GAUGE_ID),
    "adexp_plane": _bundle(star=_load("moyal_plane.json"), alpha=_poly(2, "x^2"), b=_poly(2, "y^2")),
    "nabla_plane": _bundle(
        star=_load("moyal_plane.json"),
        gauge=_GAUGE_ID,
        xi0=_mv(2, {"degree": 1, "terms": []}),
        xi1=_mv(2, [{"indices": [1], "coeff": "x"}, {"indices": [2], "coeff": "y^2"}]),
        f=_poly(2, "x*y"),
        m=_poly(2, "y"),
    ),
    # the bimodule twisted by G = gauge_xi.json (R_1 = x1 d_x, R_2 = d_x^2 / 2): P'_2 != P_2 and G_1 != 0
    "nabla_gauge_xi": _bundle(
        star=_load("moyal_plane.json"),
        gauge=_load("gauge_xi.json"),
        xi0=_mv(2, [{"indices": [2], "coeff": "x"}]),
        xi1=_mv(2, [{"indices": [1], "coeff": "x"}, {"indices": [2], "coeff": "y^2"}]),
        f=_poly(2, "x*y"),
        m=_poly(2, "y"),
    ),
    # a closed H at order 3 on R^4: the order-4 defect mixes pi_1 and pi_2 in the triple contraction
    "qc_r4_order3": {"kind": "qc", "dim": 4, "order": 3, "payload": {
        "pis": [[{"indices": [1, 2], "coeff": "1"}, {"indices": [3, 4], "coeff": "1"}],
                [{"indices": [1, 3], "coeff": "x4"}, {"indices": [2, 4], "coeff": "x1"}],
                [{"indices": [1, 4], "coeff": "x2*x3"}]],
        "H": [{"indices": [1, 2, 3], "coeff": "x4"}, {"indices": [2, 3, 4], "coeff": "x1"}]}},
    # kappa on R^3 at order 2, where B has more than one 2-form key
    "kappa_r3_order2": _bundle(
        qc={"kind": "qc", "dim": 3, "order": 2, "payload": {
            "pis": [[{"indices": [1, 2], "coeff": "1"}], [{"indices": [2, 3], "coeff": "1"}]],
            "H": {"degree": 3, "terms": []}}},
        B=_form(3, [{"indices": [1, 2], "coeff": "x3"}, {"indices": [2, 3], "coeff": "-x1"}]),
    ),
    # error paths
    # Sigma1 and bimodule refusals: a gauge whose order is not the star's, a
    # base that is not special, a Sigma1 class that is not a vector field
    "sigma1_order_mismatch": _bundle(star=_load("badstar.json"), gauge=_load("gauge_xi.json")),
    "subprincipal_order_mismatch": _bundle(star=_load("moyal_plane.json"), gauge=_ZERO_GAUGE2),
    "sigma1_not_special": _bundle(star=_load("badstar.json"), gauge=_ZERO_GAUGE2),
    "nabla_order_mismatch": _bundle(star=_load("moyal_plane.json"), gauge=_ZERO_GAUGE2,
                                    xi0=_ZERO_FIELD, xi1=_ZERO_FIELD, f=_poly(2, "x"), m=_poly(2, "y")),
    "nabla_curv_xi1_bivector": _bundle(star=_load("moyal_plane.json"), gauge=_load("gauge_xi.json"),
                                       xi0=_ZERO_FIELD, xi1=_mv(2, [{"indices": [1, 2], "coeff": "1"}])),
    "nabla_not_special": _bundle(star=_load("badstar.json"), gauge=_ZERO_GAUGE2,
                                 xi0=_ZERO_FIELD, xi1=_ZERO_FIELD, f=_poly(2, "x"), m=_poly(2, "y")),
    "bracket_missing_g": _bundle(pi=_load("so3.json"), f=_poly(3, "x")),
    "bracket_g_wrong_kind": _bundle(pi=_load("so3.json"), f=_poly(3, "x"), g=_mv(3, [{"indices": [1], "coeff": "x"}])),
    "d_missing_omega": _bundle(algebroid=_load("algebroid_so3.json")),
    "d_omega_wrong_kind": _bundle(algebroid=_load("algebroid_so3.json"), omega=_poly(3, "x")),
    # a bundle's own dim and order are optional; present, they are checked like any other (dim first)
    "bundle_dim_and_order": {"kind": "bundle", "dim": 2, "order": 3, "payload": {}},
    "bundle_bad_dim_and_order": {"kind": "bundle", "order": "x", "dim": True, "payload": {}},
    "bundle_bad_order": {"kind": "bundle", "order": 0, "payload": {}},
    # a t-series entry whose order is not the star's
    "adexp_alpha_order": _bundle(star=_load("moyal_plane.json"),
                                 alpha={"kind": "poly", "dim": 2, "order": 1, "payload": ["x^2", "y"]},
                                 b=_poly(2, "y^2")),
    "adexp_b_order": _bundle(star=_load("moyal_plane.json"), alpha=_poly(2, "x^2"),
                             b={"kind": "poly", "dim": 2, "order": 2, "payload": ["y^2", "x", "1"]}),
    # a dim of 2^70, far above parser.MAX_DIM, is refused before the payload is read; it
    # used to end in an OverflowError (exit 3), and a dim of 30,000,000 in seconds of work
    "dim_over_budget_poly": _poly(2**70, "x1"),
    "dim_over_budget_multivec": _mv(2**70, [{"indices": [1], "coeff": "x1"}]),
    "dim_over_budget_diffop": _diffop(2**70, 1, [{"coeff": "x1", "orders": [[0]]}]),
    # operator documents whose leaf texts repeat: a leaf is read once per operator, and
    # the result, the refusal and its path are those of reading every entry on its own.
    # "x1*x2 - 1/2" sits at four entries; at orders ((0, 1), (1, 0)) it and its negative
    # cancel, and the grammar-only "(x1 + 1)^2" repeats at two orders
    "diffop_repeated_leaves": _diffop(2, 2, [{"coeff": c, "orders": o} for c, o in [
        ("x1*x2 - 1/2", [[1, 0], [0, 1]]), ("x1*x2 - 1/2", [[0, 1], [1, 0]]),
        ("(x1 + 1)^2", [[0, 0], [2, 0]]), ("-x1*x2 + 1/2", [[0, 1], [1, 0]]),
        ("x1*x2 - 1/2", [[2, 0], [0, 0]]), ("1/3", [[1, 0], [0, 1]]),
        ("(x1 + 1)^2", [[0, 0], [0, 1]]), ("x1*x2 - 1/2", [[0, 0], [0, 2]])]]),
    # the same unreadable leaf at entries 1 and 3: refused at the first, terms[1].coeff
    "diffop_repeated_unreadable_leaf": _diffop(2, 1, [{"coeff": c, "orders": o} for c, o in [
        ("x1", [[1, 0]]), ("x1 + q", [[0, 1]]), ("x2", [[0, 1]]), ("x1 + q", [[2, 0]])]]),
    # verify's defect reports, one damaged entry each: a bivector that is not Poisson
    # (its Jacobiator is -x1), a star whose P_1 is that bivector's biderivation, a gauge with
    # R_1 = x1 that moves 1, an anchor that breaks the anchor axiom, and the order-2 Moyal
    # plane with d1^2 (x) d2 - d2 (x) d1^2, skew but no biderivation, added to P_2
    "verify_not_poisson": _bundle(pi=_mv(3, [{"indices": [1, 2], "coeff": "x2"},
                                              {"indices": [2, 3], "coeff": "x1"}])),
    "verify_star_pi_not_poisson": _bundle(star={"kind": "star", "dim": 3, "order": 1, "payload": {"P": [
        {"arity": 2, "terms": [{"coeff": c, "orders": o} for c, o in [
            ("x2", [[1, 0, 0], [0, 1, 0]]), ("-x2", [[0, 1, 0], [1, 0, 0]]),
            ("x1", [[0, 1, 0], [0, 0, 1]]), ("-x1", [[0, 0, 1], [0, 1, 0]])]]}]}}),
    "verify_gauge_not_unital": _bundle(gauge={"kind": "gauge", "dim": 2, "order": 1, "payload": {
        "R": [{"arity": 1, "terms": [{"coeff": "x1", "orders": [[0, 0]]}]}]}}),
    "verify_algebroid_fails": _bundle(algebroid={"kind": "algebroid", "dim": 1, "payload": {
        "rank": 2, "anchor": [["1"], ["x1"]]}}),
    "verify_p2_not_biderivation": _bundle(star={"kind": "star", "dim": 2, "order": 2, "payload": {"P": [
        _load("moyal_plane.json")["payload"]["P"][0],
        {"arity": 2, "terms": _load("moyal_plane.json")["payload"]["P"][1]["terms"] + [
            {"coeff": "1", "orders": [[2, 0], [0, 1]]}, {"coeff": "-1", "orders": [[0, 1], [2, 0]]}]}]}}),
    # a canonical leaf above kernel.MAX_PACKED at entries 1 and 2: refused at terms[1].coeff
    "diffop_repeated_leaf_over_budget": _diffop(2, 1, [{"coeff": c, "orders": o} for c, o in [
        ("x2", [[1, 0]]), ("x1^40000 + x2", [[0, 1]]), ("x1^40000 + x2", [[1, 0]])]]),
    # a repeated structure pair adds entrywise: parse echoes one entry with coeffs ["1", "x1"]
    "algebroid_repeated_pair": {"kind": "algebroid", "dim": 1, "payload": {
        "rank": 2, "anchor": [["1"], ["x1"]],
        "structure": [{"pair": [1, 2], "coeffs": ["1", "0"]}, {"pair": [1, 2], "coeffs": ["0", "x1"]}]}},
    # verify branches no other row reaches: a qc entry whose H = x1 dx2^dx3^dx4 is not closed;
    # a gauge whose R_1 = x1 moves 1, so the star beside it (same dim and order) gets no
    # cross-check; and a star whose skew P_1 = d1^2 (x) d2 - d2 (x) d1^2 is no biderivation,
    # so the cross-check with the unital gauge R_1 = x2 d1 has no associated Poisson to compare
    "verify_qc_h_not_closed": _bundle(qc={"kind": "qc", "dim": 4, "order": 1, "payload": {
        "pis": [[{"indices": [1, 2], "coeff": "1"}]], "H": [{"indices": [2, 3, 4], "coeff": "x1"}]}}),
    "verify_star_beside_gauge_not_unital": _bundle(
        star=_load("moyal_plane.json"),
        gauge={"kind": "gauge", "dim": 2, "order": 3, "payload": {"R": [
            {"arity": 1, "terms": [{"coeff": "x1", "orders": [[0, 0]]}]},
            {"arity": 1, "terms": []}, {"arity": 1, "terms": []}]}}),
    "verify_p1_not_biderivation_beside_gauge": _bundle(
        star={"kind": "star", "dim": 2, "order": 1, "payload": {"P": [{"arity": 2, "terms": [
            {"coeff": "1", "orders": [[2, 0], [0, 1]]}, {"coeff": "-1", "orders": [[0, 1], [2, 0]]}]}]}},
        gauge={"kind": "gauge", "dim": 2, "order": 1, "payload": {"R": [
            {"arity": 1, "terms": [{"coeff": "x2", "orders": [[1, 0]]}]}]}}),
    # a t-series alpha of the star's order, taken as it is
    "adexp_alpha_series": _bundle(star=_load("moyal_plane.json"),
                                  alpha={"kind": "poly", "dim": 2, "order": 3, "payload": ["x^2", "y", "0", "x*y"]},
                                  b=_poly(2, "y^2")),
    # canonical text but for two trailing spaces: the grammar reads it and skips them
    "leaf_trailing_spaces": _poly(2, "x1 + 2*x2  "),
    # reader branches: a multivec payload that is a text, diffop entries that are not an object
    # or lack the orders key, and an empty multivec array, which is the zero of degree 0
    "multivec_payload_text": _mv(2, "x1"),
    "diffop_entry_not_object": {"kind": "diffop", "dim": 2, "payload": [1]},
    "diffop_entry_keys": {"kind": "diffop", "dim": 2, "payload": [{"coeff": "1"}]},
    "multivec_empty": _mv(2, []),
    # an algebroid structure that is not an array: a number, null and an object are refused
    # at $.payload.structure, as is the same document inside a bundle
    "algebroid_structure_number": dict(_RANK2_ON_LINE, payload=dict(_RANK2_ON_LINE["payload"], structure=5)),
    "algebroid_structure_null": dict(_RANK2_ON_LINE, payload=dict(_RANK2_ON_LINE["payload"], structure=None)),
    "algebroid_structure_object": dict(_RANK2_ON_LINE, payload=dict(_RANK2_ON_LINE["payload"], structure={})),
    "verify_algebroid_structure_number": _bundle(
        algebroid=dict(_RANK2_ON_LINE, payload=dict(_RANK2_ON_LINE["payload"], structure=5))),
    # zero frame forms on R^3 beside an algebroid on R^1: refused as a nonzero one is
    "ext_zero_forms_other_dim": _bundle(algebroid=_RANK2_ON_LINE, twist=_form(3, [], degree=2),
                                        lam=_form(3, [], degree=1)),
    "d_zero_omega_other_dim": _bundle(algebroid=_RANK2_ON_LINE, omega=_form(3, [], degree=1)),
    # a t-series poly entry where a polynomial is needed is refused at its order; star adexp
    # alone takes t-series
    "bracket_g_series": _bundle(pi=_load("pi_std.json"), f=_poly(2, "x*y"), g=_SERIES),
    "hamiltonian_f_series": _bundle(pi=_load("pi_std.json"), f=_SERIES),
    "apply_f2_series": _bundle(op=_diffop(2, 2, [{"coeff": "x", "orders": [[1, 0], [0, 1]]}]),
                               f1=_poly(2, "x^2*y^3"), f2=_SERIES),
    "nabla_m_series": _bundle(star=_load("moyal_plane.json"), gauge=_GAUGE_ID, xi0=_ZERO_FIELD,
                              xi1=_mv(2, [{"indices": [1], "coeff": "x"}]), f=_poly(2, "x*y"), m=_SERIES),
}

CORPUS_DOCS = sorted(n for n in os.listdir(CORPUS) if n.endswith(".json"))
BUNDLE_DOCS = ["bundle.json", "bundle_empty.json", "bundle_tampered_assoc.json",
               "bundle_tampered_p2.json", "bundle_tampered_qc.json", "kappa_plane.json"]
MULTIVECS = ["pi_bad.json", "pi_rank4.json", "pi_std.json", "so3.json"]
STARS = ["badstar.json", "moyal_plane.json", "moyal_r3.json"]
GAUGES = ["gauge_halfdx2.json", "gauge_xi.json"]
QCS = ["qc_bad.json", "qc_plane.json", "qc_r3.json"]

CASES = (
    [("parse", n) for n in CORPUS_DOCS]
    + [("verify", n) for n in BUNDLE_DOCS]
    + [("verify", n) for n in ("verify_not_poisson", "verify_star_pi_not_poisson", "verify_gauge_not_unital",
                               "verify_algebroid_fails", "verify_p2_not_biderivation")]
    + [("poisson check", n) for n in MULTIVECS]
    + [("algebroid from-poisson", n) for n in MULTIVECS]
    + [("algebroid check", n) for n in ("algebroid_so3.json", "check_anchor_fails", "check_jacobi_fails")]
    + [("star assoc", n) for n in STARS]
    + [("star poisson", n) for n in STARS]
    + [("star invert", n) for n in GAUGES]
    + [("mc", n) for n in QCS]
    + [("kappa", "kappa_plane.json")]
    + [("mc", "qc_r4_order3"), ("kappa", "kappa_r3_order2")]
    + [("algebroid d", n) for n in ("d_so3", "d_index_above_rank",
                                              "d_two_indices_above_rank", "d_index_above_dim")]
    + [("algebroid ext-curv", n)
       for n in ("ext_so3", "ext_lam_index_above_rank", "ext_twist_not_closed")]
    + [("poisson bracket", "bracket_so3"), ("poisson dpi", "dpi_plane"),
       ("poisson koszul", "koszul_so3"), ("poisson hamiltonian", "hamiltonian_so3")]
    + [("poisson dpi", n) for n in ("dpi_so3_bivector", "dpi_bad_self", "dpi_degree0", "dpi_r4_trivector")]
    + [("algebroid ext-curv", "ext_plane_twist"), ("poisson hamiltonian", "hamiltonian_degree1_const")]
    + [("diffop apply", "apply_plane"), ("diffop compose --slot 2", "compose_plane"),
       ("diffop delta", "delta_plane"), ("diffop cocycle", "cocycle_not_closed"),
       ("diffop compose", "compose_over_packed_budget"), ("diffop compose", "compose_over_digit_limit"),
       ("diffop apply", "apply_over_packed_budget"),
       ("diffop delta", "delta_order0_mixed"), ("diffop cocycle", "cocycle_order0_slots"),
       ("star assoc", "star_nonassoc_order3"), ("star gauge", "gauge_order0")]
    + [("star moyal --order 2", "pi_std.json"), ("star moyal --order 12", "pi_std.json"),
       ("star moyal", "so3.json"), ("star gauge", "gauge_plane"),
       ("star specialize", "star_gauged_halfdx2"), ("star specialize --degree 0", "star_gauged_degree1"),
       ("star sigma1", "section_identity"),
       ("star subprincipal", "section_identity"), ("star adexp", "adexp_plane"),
       ("star nabla", "nabla_plane"), ("star nabla-curv", "nabla_plane"),
       ("star subprincipal", "gauge_plane"), ("star nabla", "nabla_gauge_xi"),
       ("star nabla-curv", "nabla_gauge_xi")]
    # error paths: a missing entry, a wrong kind, a bare document where a bundle
    # is needed, a non-bundle for verify, the frame form entry, a usage error
    + [("poisson bracket", "bracket_missing_g"), ("poisson bracket", "bracket_g_wrong_kind"),
       ("star gauge", "moyal_plane.json"), ("star assoc", "so3.json"),
       ("verify", "so3.json"), ("algebroid d", "d_missing_omega"),
       ("algebroid d", "d_omega_wrong_kind"), ("star frobnicate", "moyal_plane.json")]
    + [("parse", n) for n in ("bundle_dim_and_order", "bundle_bad_dim_and_order", "bundle_bad_order")]
    + [("star adexp", n) for n in ("adexp_alpha_order", "adexp_b_order")]
    + [("star sigma1", "sigma1_order_mismatch"), ("star subprincipal", "subprincipal_order_mismatch"),
       ("star sigma1", "sigma1_not_special"), ("star nabla", "nabla_order_mismatch"),
       ("star nabla-curv", "nabla_curv_xi1_bivector"), ("star nabla", "nabla_not_special")]
    + [("parse", n) for n in ("power_over_budget", "power_under_budget", "power_over_bit_budget",
                              "literal_over_digit_limit", "exponent_over_digit_limit",
                              "exponent_product_over_digit_limit", "exponent_at_packed_budget",
                              "exponent_over_packed_budget")]
    + [("parse", n) for n in ("diffop_repeated_leaves", "diffop_repeated_unreadable_leaf",
                              "diffop_repeated_leaf_over_budget", "product_over_budget")]
    + [("parse", "algebroid_repeated_pair")]
    + [("parse", f"dim_over_budget_{kind}") for kind in ("poly", "multivec", "diffop")]
    + [("verify", n) for n in ("verify_qc_h_not_closed", "verify_star_beside_gauge_not_unital",
                               "verify_p1_not_biderivation_beside_gauge")]
    + [("star adexp", "adexp_alpha_series"), ("parse", "leaf_trailing_spaces")]
    + [("parse", n) for n in ("multivec_payload_text", "diffop_entry_not_object", "diffop_entry_keys",
                              "multivec_empty")]
    + [("parse", n) for n in ("algebroid_structure_number", "algebroid_structure_null",
                              "algebroid_structure_object")]
    + [("verify", "verify_algebroid_structure_number"), ("algebroid ext-curv", "ext_zero_forms_other_dim"),
       ("algebroid d", "d_zero_omega_other_dim")]
    + [("poisson bracket", "bracket_g_series"), ("poisson hamiltonian", "hamiltonian_f_series"),
       ("diffop apply", "apply_f2_series"), ("star nabla", "nabla_m_series")]
)


def run_case_text(command, name, tmp_dir):
    """Run one case through dispatch; returns (exit code, report text)."""
    if name in BUNDLES:
        path = os.path.join(tmp_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(BUNDLES[name], fh)
    else:
        path = os.path.join(CORPUS, name)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(command.split() + ["--in", path])
    return code, buf.getvalue()


def run_case(command, name, tmp_dir):
    """Run one case through dispatch; returns (exit code, canonical_sha256)."""
    code, text = run_case_text(command, name, tmp_dir)
    return code, json.loads(text)["canonical_sha256"]


GOLDEN = {
    ('parse', 'algebroid_so3.json'): (0, "0ad7c038ab5e9be6a2470cd1f40e75a6fc65276ddfe95a36e37ecb7c8e03772a"),
    ('parse', 'badstar.json'): (0, "dce8283724d2abc9ba3261ba86e55551aafbb09dc176869cf02246355f2e85fe"),
    ('parse', 'bundle.json'): (0, "e206abb15b5b0087fa42daba29d7bf305d78ccf6f47669539d79727b1593e98c"),
    ('parse', 'bundle_empty.json'): (0, "2716615e67dbe4a9b9d2d9e228aaf596bbea991b887e9c70fb422fbcbc6881d9"),
    ('parse', 'bundle_tampered_assoc.json'): (0, "ae9d15df8fbb7589b68b4961e3fa8d68204b19490085fccb1df452cd160a1e5b"),
    ('parse', 'bundle_tampered_p2.json'): (0, "a103c1bd030b27e02b483f568298ec3d049423ba2ef07d2ebf6bfcb60c7c2a82"),
    ('parse', 'bundle_tampered_qc.json'): (0, "50697f401f17f3e61a51862544b1597860b2bb5431b497ed74508ae863fa41ea"),
    ('parse', 'gauge_halfdx2.json'): (0, "686bde19b94b4108855231105060f9070fad28b7acd51b5d613e4976c2649cf8"),
    ('parse', 'gauge_xi.json'): (0, "2757da8ae27b1113e05f850d4be909967648b073f05f5f59f2d4da0228b31dbd"),
    ('parse', 'kappa_plane.json'): (0, "2f50e9bd5a9f834d94e159c775080af36ea59bb26d781fe2df085ed1905dd184"),
    ('parse', 'moyal_plane.json'): (0, "a8d35c5c6f7859f36d2387a40e9757a48a34de54e6df6d959f54ef9b6cb61b75"),
    ('parse', 'moyal_r3.json'): (0, "8e6f02d18a40f953edba8ccea9fc5711e51ec8a6c2c0b6db0d61d42556e2c2c6"),
    ('parse', 'pi_bad.json'): (0, "0ea51f84c74ae88b81f19cf51ce632e5b8a7b278c1203ad9243424592f7a614a"),
    ('parse', 'pi_rank4.json'): (0, "42f97aa286e3eefdc895d3b90aad03c4fba2229ed0cf9f74973ca606fd7793f3"),
    ('parse', 'pi_std.json'): (0, "c2744bb63b8ba6c00ee7d4babe7762649c2c8d89fa33718ab00d12a491be61c3"),
    ('parse', 'qc_bad.json'): (0, "d2a74a8fca6c22d1bb08ad640994058aed980192485f51e391900f6a4f8eaa5a"),
    ('parse', 'qc_plane.json'): (0, "264cc2335e864d9cfde0a705eae988f4d1d45c65f5865e4e5eaadf35dbcd430a"),
    ('parse', 'qc_r3.json'): (0, "c6b6f1ef950bdbfc2d34decfcb7e0fcb48ea274060f74c015ae34d0b78182944"),
    ('parse', 'so3.json'): (0, "e60fc7de5a3a3651c28af0d7802a29fa8c5c22306af287e6933ff6b00cd4c48a"),
    ('verify', 'bundle.json'): (0, "3fefb15ea44c4cdee6aecc5948e821be334d6aa2a439097c7077817707209075"),
    ('verify', 'bundle_empty.json'): (0, "1a61ec87e7db6b09f2b621d658991054324d6625493912b8e91a1c7b15b5ac3e"),
    ('verify', 'bundle_tampered_assoc.json'): (1, "897896d6681905856a629f885b8eea96e99ba47905e850c9c67beefa022e495e"),
    ('verify', 'bundle_tampered_p2.json'): (1, "6ab4a27f2b9d0755440b9b76f0dc0597c3d51523a42f6e24b6380efeabc72719"),
    ('verify', 'bundle_tampered_qc.json'): (1, "47f8b03b4c7fda4c2725f3c546c4aaac02db248e01ed357cf8e215af9925cd49"),
    ('verify', 'kappa_plane.json'): (0, "be8e5eaf33cfd2c923a1f61c9f8e44a5d5a74f9d1f60c807c41fcb7329b0eb67"),
    ('poisson check', 'pi_bad.json'): (1, "0366f84738b39e15a3d3b70fa07aac82d5617b2fd566a18d831475e291c4752a"),
    ('poisson check', 'pi_rank4.json'): (0, "cb948d8ae52a4cfa1a939cd00f5449271db1595012a4c720dbdaa2367a078e58"),
    ('poisson check', 'pi_std.json'): (0, "cb948d8ae52a4cfa1a939cd00f5449271db1595012a4c720dbdaa2367a078e58"),
    ('poisson check', 'so3.json'): (0, "cb948d8ae52a4cfa1a939cd00f5449271db1595012a4c720dbdaa2367a078e58"),
    ('algebroid from-poisson', 'pi_bad.json'): (0, "3979f71123dbafa85b666e6105eae05547643231f73947f6f9bb0a7b44f74a9d"),
    ('algebroid from-poisson', 'pi_rank4.json'): (0, "dacc5b2936a8e0e2f6d29e659aefa9f9f70220431c02e4f1db255b24c4b47ee3"),
    ('algebroid from-poisson', 'pi_std.json'): (0, "5db1b6bf22e7b4bbacf58aea60e486168e5517ce42d8180766cc09a59ed32cfd"),
    ('algebroid from-poisson', 'so3.json'): (0, "9cf3bb8f3830b98bda0e545122d987e82a42c79b6e54d173971abe2b6ff6c3d5"),
    ('algebroid check', 'algebroid_so3.json'): (0, "a554da60212b6002e34f699ade467ee653eb4fe4750ac3c2004044255a6adfae"),
    ('algebroid check', 'check_anchor_fails'): (1, "c46b4ba56c98307e97267be2d9a89577c25369cb5f4857ef17713298dd2a7425"),
    ('algebroid check', 'check_jacobi_fails'): (1, "5e63e1477c5829639d4ab169018a44cc1bf86a722f1b0a890f52a08d29afd9dd"),
    ('star assoc', 'badstar.json'): (1, "0f75258cf9c5781ca45a1df7e4ea5f46811f2846fbbd5c5e15170809fbb18bbd"),
    ('star assoc', 'moyal_plane.json'): (0, "58e52950d326ecc6eadfa465c0d3f23055a9c8f2dba3fb451485ea726cd6ab5e"),
    ('star assoc', 'moyal_r3.json'): (0, "58e52950d326ecc6eadfa465c0d3f23055a9c8f2dba3fb451485ea726cd6ab5e"),
    ('star poisson', 'badstar.json'): (0, "6493b35f6bf372ad47986dc3f13e90699926bd68ec89cd3f424fcff8e363778c"),
    ('star poisson', 'moyal_plane.json'): (0, "4dcf6af93eef1babe8ccb789296d15204db767fe2bc36cd91199ec9a6a2e7b94"),
    ('star poisson', 'moyal_r3.json'): (0, "4dcf6af93eef1babe8ccb789296d15204db767fe2bc36cd91199ec9a6a2e7b94"),
    ('star invert', 'gauge_halfdx2.json'): (0, "ad606059db07521e24ebf76bd5969352ab9880a844ea422e0fd745a72e1fb9dc"),
    ('star invert', 'gauge_xi.json'): (0, "224ae384abfb9412e850ab2b64922f09fb10b760227a8c8a2e7db430762eb5fb"),
    ('mc', 'qc_bad.json'): (1, "b644781c32fab68d088fdabe1abd487c3341e2e9b81534a382ef5aa57f5ab6d9"),
    ('mc', 'qc_plane.json'): (0, "a033f06ae951b376319d97119a43f279bd2d1c6b1f7304d91af778c11e539513"),
    ('mc', 'qc_r3.json'): (0, "a033f06ae951b376319d97119a43f279bd2d1c6b1f7304d91af778c11e539513"),
    ('kappa', 'kappa_plane.json'): (0, "e176557128ddbdeb3c85751b8381ce122e323594a276ca04aecf69e7fc3fb81d"),
    ('algebroid d', 'd_so3'): (0, "e44b3907ad6756467d1e1ece82907e0b787f9e4e4f0129faa1ed6546d4099a2e"),
    ('algebroid d', 'd_index_above_rank'): (2, "3068468947761b0d6bc51c5c7114d9ae7c1d9acd5d36c4f1ca03a20cb1f00543"),
    ('algebroid d', 'd_two_indices_above_rank'): (2, "3068468947761b0d6bc51c5c7114d9ae7c1d9acd5d36c4f1ca03a20cb1f00543"),
    ('algebroid d', 'd_index_above_dim'): (2, "09a68ed78041406cd5189d0c84262359ad94d8f6f216eb67df2d804d0cf2a3b8"),
    ('algebroid ext-curv', 'ext_so3'): (0, "faca80b5ea43f439b054b6bfbe57f3c2cb22abe9928c796286145276dc427016"),
    ('algebroid ext-curv', 'ext_lam_index_above_rank'): (2, "6ff314b9ff8a10e6ba8acec5abf9a29b057795fc19e015d7a88c8aaf0cdaa61a"),
    ('algebroid ext-curv', 'ext_twist_not_closed'): (1, "126a9e8b70d314790b74c0823899df6340fcb7578ce2b31230467981e6fe9a4e"),
    ('poisson bracket', 'bracket_so3'): (0, "d0a29d827c588ee43bae3d29fe38994028a4ea06c8fe92cb6f31443dfba97e47"),
    ('poisson dpi', 'dpi_plane'): (0, "670c24b86691621f7b765e111bcdc413ea8cfb3d441f92f9bbdc87cae97ef2a2"),
    ('poisson koszul', 'koszul_so3'): (0, "b580360794be2710751db2317def7a35b811f8da9eca4a613973d3c42fefb6af"),
    ('poisson hamiltonian', 'hamiltonian_so3'): (0, "28b41713f768de88be105464331e6fcc08bddf7b560c76787d1f78773846a7d9"),
    ('poisson dpi', 'dpi_so3_bivector'): (0, "96ad7b4f6bea0285c2cb4e53548cbc152d662abe3633690c5144b958dd4279be"),
    ('poisson dpi', 'dpi_bad_self'): (0, "6b61c4fbd5f9273a0e917f7a4c35d62b3451e5ad3c4f56a2810b12a66bfd4260"),
    ('poisson dpi', 'dpi_degree0'): (0, "60738b8b2635bebebed4c5bda2a4f01e8097904252c5343c9e515c41ff9f0570"),
    ('poisson dpi', 'dpi_r4_trivector'): (0, "0397803f30477b6639a0f261e68ea61b4b061bf39b769ca5113ed61c4684b2b3"),
    ('algebroid ext-curv', 'ext_plane_twist'): (0, "f3de6d893b3e6d2594f76562c342fc359175d4016e21e4db177cce9a4086cf5c"),
    ('poisson hamiltonian', 'hamiltonian_degree1_const'): (2, "a2ed70e443f779c16a58b6769f952450c0bed22f707ee53d13160072b3ad8a0d"),
    ('diffop apply', 'apply_plane'): (0, "bcc6d160b63d97ec5f6751a30671bc682a92883acdd716c801696cbf17481cca"),
    ('diffop compose --slot 2', 'compose_plane'): (0, "5ba6d997b84b11461a680bd227532cf41c009cd392a47220c53d981148b49280"),
    ('diffop delta', 'delta_plane'): (0, "43dea870631b0256227a4480b411161ca4936dfddfc1b1060d9920523d2e7e33"),
    ('diffop cocycle', 'cocycle_not_closed'): (1, "d819b6ab0079d93fc133cdb7319699016687633b5c1b4ccfa65259669815058f"),
    ('star moyal --order 2', 'pi_std.json'): (0, "83f5a72e9f6ce03f30955c50e659034670b6e15093baecc11a64102115c473b1"),
    ('star moyal --order 12', 'pi_std.json'): (0, "15133ff2adad0e868a4cdcd8d6bd575f2d56adfc4bbb636a08fe4c597b1ed8a3"),
    ('star moyal', 'so3.json'): (1, "873897ad8a3296e8d155e44edfbb142379611362e2fbaaa9bdc611c35bf536f1"),
    ('star gauge', 'gauge_plane'): (0, "859803e737a4a061845ade0c65f2889e5165ed19fd986bcd49ee917bacddc7af"),
    ('star specialize', 'star_gauged_halfdx2'): (0, "c4b81f111b148fff4bf857ded643c07b057c03cdb4454fa4bc0965f68b900b67"),
    ('star sigma1', 'section_identity'): (0, "1b5a3296b5e85aae90fe68d0e17535ca85f5beb42685f3fa4a1614785d34d819"),
    ('star subprincipal', 'section_identity'): (0, "c9fbc98900a150288215a5d55e25811463bcc597c5befbba0886352f859d4ac0"),
    ('star adexp', 'adexp_plane'): (0, "d700173d59ec1b39a4d3f166a39b7e19fefad72219c1d624adf6ca53e43eceb6"),
    ('star nabla', 'nabla_plane'): (0, "77d956c2695bf98c073e85b6bf5ec0f8e88b340aee3f413cb4e02c6f271eb4a3"),
    ('star nabla-curv', 'nabla_plane'): (0, "d40dc4351acc186031663b03f6865ff61f52b1e7d85802772aa615d6b579604e"),
    ('poisson bracket', 'bracket_missing_g'): (2, "bd8f96d9e2c410eb4ea9afa7a9fd4e18a82e2b63e97e5db53b7b15a169c56d12"),
    ('poisson bracket', 'bracket_g_wrong_kind'): (2, "db4fba319016e3f6733d29a5d779f4601b2f58cfd82a065ddc29f6e298a3e15b"),
    ('star gauge', 'moyal_plane.json'): (2, "9a1217d5545f77a02d1b5a19bca2a3492ae22f9bb623ef618e750396e545fed6"),
    ('star assoc', 'so3.json'): (2, "5aa7fb3da4b4ae12984fa315d3850903cd89beb708a287decbe78d934ec39446"),
    ('verify', 'so3.json'): (2, "42fc81e55808911625a52914db022c79a2436beb0b4882356190e7893864c3e2"),
    # the frame-form entries are fetched like every other entry: the path and
    # wording of a missing or wrong-kind entry are those of every action
    ('algebroid d', 'd_missing_omega'): (2, "8ec057be0244fb9e58460b2b5620f67f41c3b740414645d17a31f03ab456a2f4"),
    ('algebroid d', 'd_omega_wrong_kind'): (2, "24b897b2dd723b31aa0e8587a196f0737db82651d15130cf192fe5b3f525b80c"),
    ('star frobnicate', 'moyal_plane.json'): (2, "842fcf5a52ed896733971744bea5c1121ef0b77f0f42851a006c6f5696c2da6e"),
    ('parse', 'bundle_dim_and_order'): (0, "26e9821b79a656a91fbd16a9a652ffc537cb0713f7e53f767e60b5565647f1ba"),
    ('parse', 'bundle_bad_dim_and_order'): (2, "e234ded3dbe5137a855b52a8ec26c67f2a31da6f314cc9753fb3f8b61490a378"),
    ('parse', 'bundle_bad_order'): (2, "42ed8bcca23965254d7087afda88b8a15ef3607f9eb4e26b6ba7d8d6a07958f0"),
    ('star adexp', 'adexp_alpha_order'): (2, "2bafc32ede9b21cd28be8a75dd61224bcdbdd5d4c574261095cc75cd2dd01860"),
    ('star adexp', 'adexp_b_order'): (2, "543e70ac5d4ac6f2d8ff55562fd9a78a65edf9c004cd6faabeb829666ad3f6aa"),
    ('parse', 'power_over_budget'): (2, "8ca29c8f70331e00636a011dadf3d6103c6e48e2be45831e402e54c5b20c97e2"),
    ('parse', 'power_under_budget'): (0, "d536719a1fe4991be796b72649851a8c9b16605949c771ae37296e7f4a53a56d"),
    ('parse', 'power_over_bit_budget'): (2, "fa849349b4d607a94dccc62619c65e9c034b1388a0542620dbd1c1931836ed65"),
    ('diffop compose', 'compose_over_packed_budget'): (2, "3df917bea43936aef3d93ef181d10718994fa62d90005104c611b3be362b2998"),
    ('parse', 'literal_over_digit_limit'): (2, "ff3c3096ba61a90c8db474790a091524271ef966dc7e21ca68293c495a504534"),
    ('diffop compose', 'compose_over_digit_limit'): (2, "5fff50acb7b1f85536b90f66fd4ab589601982877555d294dd73e14d3202f813"),
    # these two and apply_over_packed_budget changed when Poly exponents were held to MAX_PACKED;
    # they, compose_over_packed_budget, exponent_over_packed_budget and
    # diffop_repeated_leaf_over_budget changed again when the refusal came to name
    # kernel.MAX_PACKED as a leaf parse error at the power's position
    ('parse', 'exponent_over_digit_limit'): (2, "64955c0fb1fc9d154217428cc0bbfb405ba6bc73c03d1f03ef000173f6ef99b9"),
    ('parse', 'exponent_product_over_digit_limit'): (2, "24a3a0c923e31a1d504ec3d55bd6f81396d035cb6bd7440f4e794903a218237f"),
    # the first as before that change; the second exited 0 before it
    ('parse', 'exponent_at_packed_budget'): (0, "747e25137ae425dc78da2a4bff38f9d7a57381127506b030b5e48372a9ea28f4"),
    ('parse', 'exponent_over_packed_budget'): (2, "44efbfecbf2ee8dc7595eb275a333896ef7535a97f2dcb7eac291494d631224a"),
    ('star specialize --degree 0', 'star_gauged_degree1'): (1, "f0a0a878fdb82b5a3a5fe4c67499ea577a23fdba57df2411af00a12a07f9f6e9"),
    ('diffop apply', 'apply_over_packed_budget'): (2, "602aa3f74442540aa6b0d8f0b98870d64f930dc3edefd2812488df77f769e854"),
    ('star subprincipal', 'gauge_plane'): (0, "66c178c7bc1cb4a4429cd357a747dfe594566c3370c6e757fbfb68e89d979a99"),
    ('star nabla', 'nabla_gauge_xi'): (0, "6bb56cf12ef8b00b74014e4e2a0ed3cbabf585743198e5a1348f78b97c95097d"),
    ('star nabla-curv', 'nabla_gauge_xi'): (0, "21e3d47c6eff44f607f37ee61fda2774e0a525cca40e53d6ed87b577227e64ab"),
    ('mc', 'qc_r4_order3'): (1, "0597a656504e45a1b6207c22e20c013f912f04e92bd3f3c34e9d38b9bb467e76"),
    ('kappa', 'kappa_r3_order2'): (0, "0609317171e9a5bd5551e3f957a30b8856b180723c3a38df3e84d9f1f615ff6e"),
    ('star sigma1', 'sigma1_order_mismatch'): (2, "8c895a8e3b4fd8dee536e10782044f8cf609310a0ee176f2e61d43f9c0c2a687"),
    ('star subprincipal', 'subprincipal_order_mismatch'): (2, "e79ebb1be69653b511153f74273bf9cbaec04126c062795bb1188c1ff41f30ae"),
    ('star sigma1', 'sigma1_not_special'): (1, "640f839d35d3e73a6ef5d4930737523b4bdb78041caf6da59ee5dae651635921"),
    ('star nabla', 'nabla_order_mismatch'): (2, "be5744f64f364379920dd0c29410c3334955cfd14a89a36e02c9ed6dd79ff294"),
    ('star nabla-curv', 'nabla_curv_xi1_bivector'): (2, "760168ac98a730ef0e800f66f363173e1c8dd04a3fd43dda21a770dfb35aa435"),
    ('star nabla', 'nabla_not_special'): (1, "2022d526ef1e36f47f6c8331fd83e64df5377598720eed2908884bf86f66a5f8"),
    ('parse', 'diffop_repeated_leaves'): (0, "8091a9387ed4e429ddf560f8052d65d6eb0985d8f50b29609af495843116bd7c"),
    ('parse', 'diffop_repeated_unreadable_leaf'): (2, "fbb093235df9895d0d71274bde0443816886492d07da6ff7289ba7542d725787"),
    ('parse', 'diffop_repeated_leaf_over_budget'): (2, "8ac0e5c44d9b4ddfbdd5c3e7a6b91ad84b31108fa8713cd030eb5147b0dd7e3b"),
    ('parse', 'product_over_budget'): (2, "cf0e2a4688f4758b91fc2c0f168e4e5afecf33b328c3ded2f7966e397975fdb7"),
    ('diffop delta', 'delta_order0_mixed'): (0, "913fa0ddd4cec836b4f7bb9acf14c62048b81ff16ea8ebd130d21408dab18ece"),
    ('diffop cocycle', 'cocycle_order0_slots'): (1, "48c6aad1bff4eca019ff6f38f0f71ca00bfecc3a71461f74126870432b883d35"),
    ('star assoc', 'star_nonassoc_order3'): (1, "9a5a0a0765955a5737091a6fb9f1e0e47a45c8a4d14d9e8c307891831b2055d8"),
    ('star gauge', 'gauge_order0'): (0, "fadf82a36321a4cfa82a2f1eaf9922ad4b456ad95a8ff35e4020cd9f2e147c1e"),
    # one defect report each
    ('verify', 'verify_not_poisson'): (1, "afbec814a417696e5731b26b3ff73881a812bd0fc3c0efa4d49144fef408e96b"),
    ('verify', 'verify_star_pi_not_poisson'): (1, "b238e8158033d4b0ba7dbf41e2e3f98acb57559a16904ed04b7aea1b7b32bc8f"),
    ('verify', 'verify_gauge_not_unital'): (1, "dc31c6c55539f9dc5c398d49a467e65d2abb24fbe6d90c8d2e156fcf3c9d115f"),
    ('verify', 'verify_algebroid_fails'): (1, "506240aa1c281e6988c1015b85dc70c1fdbfdf4ee6d5a8c33f0a01807d1bf224"),
    ('verify', 'verify_p2_not_biderivation'): (1, "0f20a6b16d4e9f8b4715dc65f48a0d7b3957c09b202f75b19e27feb17f073f80"),
    # recorded after repeated structure pairs came to add up; before, this report echoed
    # only the second entry (90d48fec4213e86de2687b0f92e504ee2aaff79480e1d231592095def6c927fd)
    ('parse', 'algebroid_repeated_pair'): (0, "f7aefaf778a4aeb8d70e72ddf7e549a11f6eb637f9dd9d1832bcf3c49538f124"),
    ('parse', 'dim_over_budget_poly'): (2, "152a2d552fe670556c4fd49e17f0936c01045d53fcb2cd2e984b2b2a398b298e"),
    ('parse', 'dim_over_budget_multivec'): (2, "152a2d552fe670556c4fd49e17f0936c01045d53fcb2cd2e984b2b2a398b298e"),
    ('parse', 'dim_over_budget_diffop'): (2, "152a2d552fe670556c4fd49e17f0936c01045d53fcb2cd2e984b2b2a398b298e"),
    # branches no earlier row reached, recorded before the change that added them
    ('verify', 'verify_qc_h_not_closed'): (1, "1b98d2209c5cadb1e5f5930949c5a4d1f4cd22ae9f4da62c2e444196591501c2"),
    ('verify', 'verify_star_beside_gauge_not_unital'): (1, "a30cdba6bfc43968ec1efec6b411bcf7571a682781606752ac13cc3c467d48cd"),
    # re-recorded when the star x gauge pair stopped repeating the star's missing-bivector report
    # as its Poisson-invariance defect (checks 9 -> 8); before: 08ba600a571bfb98280be394c6d473f2344417abcb7baec9d3c3a28c24cf1152
    ('verify', 'verify_p1_not_biderivation_beside_gauge'): (1, "4d1a86259aadb34574358e2ace895344233522dc741d1acf98b5d259439179fb"),
    ('star adexp', 'adexp_alpha_series'): (0, "8b5e1b3976c9bbfc1fdfeedb19e000983d43372aa57b41840fce9e8610342e3c"),
    ('parse', 'leaf_trailing_spaces'): (0, "e3ad018f6e49cf0597947b77033b8b950f63f495ffb0a0fca53103d3b916e7dd"),
    ('parse', 'multivec_payload_text'): (2, "d4092e003cc2fb554172dd377fd3b4934b3efcf7f54e34a17fd8e9ae6e266a87"),
    ('parse', 'diffop_entry_not_object'): (2, "52914d4250553c1247e9e4e756130ad930864417bb981ff4efa86fd971ce4cdd"),
    ('parse', 'diffop_entry_keys'): (2, "18fccf7d43cca6bc4a43dee1ccf3aab6f2737c5b44b6012bd488636b418066f4"),
    ('parse', 'multivec_empty'): (0, "3da3340a0a41961a27bc445c1cd6f008c4be1766be848f6eb09448a6d746247d"),
    # recorded when a structure that is not an array came to be refused (before, a number or
    # null ended in an internal error, exit 3, and an object was read as no structure), and
    # a zero frame form of another dimension came to be refused as a nonzero one is (exit 0 before)
    ('parse', 'algebroid_structure_number'): (2, "e3e24a05c1f3d4f54128b7e50b230262d9264140f6a5eb208da1c20bbd7bc0d9"),
    ('parse', 'algebroid_structure_null'): (2, "e3e24a05c1f3d4f54128b7e50b230262d9264140f6a5eb208da1c20bbd7bc0d9"),
    ('parse', 'algebroid_structure_object'): (2, "e3e24a05c1f3d4f54128b7e50b230262d9264140f6a5eb208da1c20bbd7bc0d9"),
    ('verify', 'verify_algebroid_structure_number'): (2, "c0a5468cab9a7001e94ab25283643be822198871c6666dbe51dbe9e834ddf88a"),
    ('algebroid ext-curv', 'ext_zero_forms_other_dim'): (2, "7e8d4ecdc2a6c6949f32b231e015f86e9ef22f295e7b75c37d511fe50bacb524"),
    ('algebroid d', 'd_zero_omega_other_dim'): (2, "3103dea969ae87ce363ac2cf901c3029b361299670536913de8c5eb990977aa8"),
    # recorded when a t-series poly entry where a polynomial is needed came to be refused
    # (before, each ended in an internal error, exit 3)
    ('poisson bracket', 'bracket_g_series'): (2, "1113359de68182707375f188b7f078d5a87bf90c4259c6fc7aa77be5db44899b"),
    ('poisson hamiltonian', 'hamiltonian_f_series'): (2, "922aa1d17daf50be9b8b102303d280137609769b371f490c123f84a3cbdb04e5"),
    ('diffop apply', 'apply_f2_series'): (2, "9080e4b9b39857dddb13112f71b8b35a3033d1a13e1d48b91ebf5b7ddd90639c"),
    ('star nabla', 'nabla_m_series'): (2, "2cff0d9c1a82a6284090dd5e0721cef02e66d9d5e736735b5efa726fac6f58d7"),
}

# --human runs, whose text is not JSON and so has no hash: the exact text of a run with
# defects (one line per defect location), of a run whose payload is a text, and of three
# failed runs that end in the error text (a precondition, exit 1; an unreadable input,
# exit 2, named by its absolute path, which os.path.join keeps as it is; a usage error, exit 2)
HUMAN = {
    ('verify --human', 'verify_p1_not_biderivation_beside_gauge'): (1, (
        "verify: FAILED\n"
        "  defect at star: associativity order 1\n"
        "  defect at star: P_1 cocycle\n"
        "  defect at star: associated bivector\n")),
    ('poisson bracket --human', 'bracket_so3'): (0, "poisson bracket: ok\n  2*x1^2*x3 - 2*x2^2*x3 - x1*x3\n"),
    ('star specialize --human', 'badstar.json'): (1, (
        "star specialize: FAILED\n"
        "  defect at precondition\n"
        "  error: specialize requires an associative star product\n")),
    ('poisson check --human', '/nonexistent.json'): (2, (
        "poisson check: FAILED\n"
        "  error: $: cannot read input: [Errno 2] No such file or directory: '/nonexistent.json'\n")),
    # a usage error, found before any flag is parsed, is rendered as text too
    ('poisson check --order 2 --human', 'so3.json'): (2, (
        "dqkit: FAILED\n"
        "  error: argument --order: not read by 'poisson check'\n")),
    # argparse reads --hum as --human, so the usage error is rendered as text as well
    ('poisson check --hum --order 2', 'so3.json'): (2, (
        "dqkit: FAILED\n"
        "  error: argument --order: not read by 'poisson check'\n")),
}


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("command,name", CASES, ids=[f"{c}:{n}" for c, n in CASES])
def test_report_hash_unchanged(command, name, tmp_path):
    assert run_case(command, name, str(tmp_path)) == GOLDEN[command, name]


@pytest.mark.parametrize("command,name", CASES, ids=[f"{c}:{n}" for c, n in CASES])
def test_report_text_is_canonical_json(command, name, tmp_path):
    """The CLI encodes a report's body once and splices canonical_sha256 and
    timing_ms into that text: it must be the canonical text of the whole report,
    byte for byte."""
    _, text = run_case_text(command, name, str(tmp_path))
    assert text == canonical_json_reference(json.loads(text))


@pytest.mark.parametrize("command,name", HUMAN, ids=[f"{c}:{n}" for c, n in HUMAN])
def test_human_text_unchanged(command, name, tmp_path):
    assert run_case_text(command, name, str(tmp_path)) == HUMAN[command, name]


def test_no_library_path_reads_poly_terms(monkeypatch, tmp_path):
    """Poly.terms is a view for tests and outside tools only: with every read
    of it failing, each run still gives its recorded report."""

    def forbidden(self):
        raise AssertionError("Poly.terms read by library code")

    monkeypatch.setattr(Poly, "terms", property(forbidden))
    for command, name in CASES:
        assert run_case(command, name, str(tmp_path)) == GOLDEN[command, name], (command, name)
