"""The operator layer's "for all a in A" systems, solved on algebra generators.

``HomSpace`` imposes a condition stated for every a ∈ A only for the basis
elements of ``condition_indices``: the generators of A when the modules
follow their laws and they are at most half the basis.  The oracles of
``oracles.py`` impose it for every basis element.  Kernels, preimages of
stable targets, action closures, presented spans, Leibniz systems, one- and
two-sided jet relations and iterated deltas must come out the same, in
catalog bases and in seeded changes of basis; a preimage of a target that is
not stable must still be solved on every member.
"""

import io
import json
import random
from contextlib import redirect_stdout

import pytest

import diffoplab.homspace as homspace
import diffoplab.jets as jets
from diffoplab.algebra import FiniteAlgebra, catalog, generator_laws_hold, trunc_poly
from diffoplab.bimodule import (
    Bimodule,
    SandwichModule,
    condition_indices,
    direct_sum,
    free_module,
    regular_bimodule,
    tensor_algebra_module,
)
from diffoplab.cecalc import MinimalCalculus
from diffoplab.cli import main
from diffoplab.derivations import derivations
from diffoplab.diffops import (
    compare_definitions,
    dv_first_order,
    grothendieck_diff,
    lunts_filtration,
    lunts_filtration_presented,
    two_sided_filtration,
)
from diffoplab.fields import QQ, Field
from diffoplab.homspace import HomSpace, LinMap, left_dual, right_dual
from diffoplab.jets import jet_module, jk_is_diffop, two_sided_jet
from diffoplab.linalg import Subspace, closure, kron_difference, preimage
from diffoplab.universal import UniversalCalculus
from oracles import (
    all_basis_action_closure,
    all_basis_action_span,
    all_basis_common_kernel,
    all_basis_dv_first_order,
    all_basis_family,
    all_basis_iterated_delta_vanishes,
    all_basis_jet_relations,
    all_basis_lunts,
    all_basis_lunts_presented,
    all_basis_preimage,
    all_basis_two_sided,
    all_basis_vanishing_chain,
    all_pairs_derivations,
    all_pairs_two_sided_jet_relations,
    changed_basis,
    permuted_spec,
    truncated_free_algebra,
)
from test_universal import NON_ASSOCIATIVE

FIELDS = pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])

# spec -> the number of generator indices: every basis element where the
# walk keeps more than half of them (2 of 3, 3 of 4 and 5 of 6)
KEPT = {"trunc_poly:5": 1, "group_z:4": 1, "square_zero:2": 3, "quaternion": 2,
        "grassmann:3": 3, "matrix:2": 4, "matrix:4": 7, "trunc_poly:2+matrix:2": 6}
# the catalog of the reduced solves: each of these is solved on generators
REDUCED = ["trunc_poly:3", "trunc_poly:5", "group_z:4", "quaternion", "grassmann:2"]
CHANGED = [("trunc_poly:4", 1), ("group_z:3", 2), ("quaternion", 3), ("matrix:2", 4),
           ("trunc_poly:2+trunc_poly:2", 5)]


# a noncommutative algebra solved on its two generators x and y
FREE = "free(xy)/3"


def algebra_of(spec, field):
    if spec == FREE:
        return truncated_free_algebra("xy", 3, field)
    if isinstance(spec, tuple):
        return changed_basis(catalog(spec[0], field), spec[1])
    return catalog(spec, field)


def spec_id(spec):
    return f"{spec[0]}-basis{spec[1]}" if isinstance(spec, tuple) else spec


def module_pairs(a):
    reg = regular_bimodule(a)
    pairs = [(reg, reg), (free_module(a, 2), reg)]
    if a.is_commutative() and not a.graded:
        omega = MinimalCalculus(a).one_forms_bimodule()
        pairs.append((omega, reg))
    return pairs


@pytest.mark.parametrize("spec,count", list(KEPT.items()))
def test_generator_indices_generate_the_algebra(spec, count):
    a = catalog(spec)
    kept = a.generator_indices()
    assert len(kept) == count
    assert a.generator_indices() is kept
    span = closure(a.field, a.dim, [a.unit], [a.left_mult_basis(g) for g in kept])
    assert span.is_full


@pytest.mark.parametrize("seed", range(8))
def test_long_cycles_come_first_in_any_basis_order(seed):
    # x has cyclic dimension 5, every other monomial less: in every order of
    # the basis the walk keeps x alone
    a = FiniteAlgebra.from_json_dict(permuted_spec(trunc_poly(5), seed))
    (x,) = a.generator_indices()
    assert a.basis_names[x] == "x"


def test_an_algebra_failing_a_law_is_solved_on_every_basis_element():
    nonassoc = FiniteAlgebra.from_json_dict(NON_ASSOCIATIVE)
    assert nonassoc.generator_indices() == (0, 1, 2)
    wrong_unit = trunc_poly(3).to_json_dict()
    wrong_unit["unit"] = ["0", "1", "0"]
    assert FiniteAlgebra.from_json_dict(wrong_unit).generator_indices() == (0, 1, 2)
    # an algebra spanned by its unit keeps no generator and uses its one index
    assert catalog("trunc_poly:1").generator_indices() == (0,)


def test_generators_above_half_the_basis_skip_the_law_checks(monkeypatch):
    import diffoplab.algebra as algebra

    checked = []
    laws = algebra.generator_laws_hold
    monkeypatch.setattr(algebra, "generator_laws_hold",
                        lambda a, gens, *rest: checked.append(len(gens)) or laws(a, gens, *rest))
    for spec in ["matrix:2", "square_zero:2", "trunc_poly:2+matrix:2", "matrix:4"]:
        a = catalog(spec)
        assert condition_indices(regular_bimodule(a)) == a.generator_indices()
    assert checked == [7]


@FIELDS
@pytest.mark.parametrize("spec", REDUCED + CHANGED, ids=spec_id)
def test_common_kernels_are_the_all_basis_kernels(spec, field):
    a = algebra_of(spec, field)
    for p, q in module_pairs(a):
        hom = HomSpace(p, q)
        kinds = [("delta",), ("bar_delta",), ("delta", "bar_delta")]
        if a.graded:
            kinds.append(("graded_delta",))
        for ks in kinds:
            assert hom.common_kernel(*ks) == all_basis_common_kernel(hom, *ks), (p, q, ks)


@FIELDS
@pytest.mark.parametrize("spec", REDUCED + CHANGED, ids=spec_id)
def test_stable_preimages_are_the_all_basis_preimages(spec, field):
    a = algebra_of(spec, field)
    for p, q in module_pairs(a):
        hom = HomSpace.between(p, q)
        for side in ("left", "right"):
            assert lunts_filtration(p, q, 2, side).terms == all_basis_lunts(hom, side, 2)
        assert dv_first_order(p, q).space == all_basis_dv_first_order(hom)
        if a.is_commutative():
            assert grothendieck_diff(p, q, 2).chain == all_basis_vanishing_chain(hom, "delta", 2)


@FIELDS
@pytest.mark.parametrize("spec", ["trunc_poly:5", "grassmann:2", "trunc_poly:3"])
def test_action_closures_are_the_all_basis_closures(spec, field):
    a = catalog(spec, field)
    reg = regular_bimodule(a)
    hom = HomSpace(reg, reg)
    rng = random.Random(11)
    for kind, actions in (("delta", ("left", "left_bullet")),
                          ("bar_delta", ("right", "right_bullet"))):
        # a seeded stable target: one coordinate map closed under the side's actions
        ops = [m for name in actions for m in all_basis_family(hom, name)]
        at = rng.randrange(hom.dim)
        seed = [a.field.one() if c == at else 0 for c in range(hom.dim)]
        target = closure(a.field, hom.dim, [seed], ops)
        assert 0 < target.dim < hom.dim
        assert hom.action_closure(kind, target, actions) == \
            all_basis_action_closure(hom, kind, target, actions)


@FIELDS
@pytest.mark.parametrize("spec", ["trunc_poly:3", "trunc_poly:5", "group_z:4",
                                  ("trunc_poly:4", 1), ("group_z:3", 2)], ids=spec_id)
def test_jet_relations_are_the_all_basis_relations(spec, field):
    a = algebra_of(spec, field)
    for p in (regular_bimodule(a), free_module(a, 2)):
        for k in (0, 1, 2):
            jm = jet_module(a, p, k)
            assert jm.mu == all_basis_jet_relations(a, p, k)
            target = jm.quotient_bimodule()
            hom = HomSpace(p, target)
            phi = LinMap(p, target, jm.jk)
            for order in range(k + 1):
                assert hom.iterated_delta_vanishes(phi, order) == \
                    all_basis_iterated_delta_vanishes(hom, phi, order)
            assert jk_is_diffop(jm)


@FIELDS
@pytest.mark.parametrize("spec", REDUCED + CHANGED + [FREE], ids=spec_id)
def test_presented_spans_are_the_all_basis_spans(spec, field):
    a = algebra_of(spec, field)
    for p, q in module_pairs(a):
        hom = HomSpace.between(p, q)
        for side in ("left", "right"):
            assert lunts_filtration_presented(p, q, 2, side).terms == \
                all_basis_lunts_presented(hom, side, 2), (p, q, side)
        assert two_sided_filtration(p, q, 2).terms == all_basis_two_sided(hom, 2), (p, q)


@FIELDS
def test_a_span_of_a_target_that_is_not_stable_is_the_all_basis_span(field):
    a = catalog("trunc_poly:5", field)
    reg = regular_bimodule(a)
    hom = HomSpace(reg, reg)
    rng = random.Random(5)
    for _ in range(10):
        target = random_target(hom, rng, rng.randrange(2, 13))
        for kind, action in (("delta", "left"), ("bar_delta", "right")):
            assert hom.action_span(kind, target, action) == \
                all_basis_action_span(hom, kind, target, action)


@FIELDS
@pytest.mark.parametrize("spec", REDUCED + CHANGED + [FREE], ids=spec_id)
def test_leibniz_systems_are_the_all_pairs_systems(spec, field):
    a = algebra_of(spec, field)
    # the regular and free modules, and Ω¹ over a commutative algebra
    targets = [p for p, _ in module_pairs(a)]
    if not a.is_commutative():
        # A ⊗ A with its second action a left one: every pair is imposed
        targets.append(tensor_algebra_module(a, targets[0]))
    for q in targets:
        assert derivations(a, q).space == all_pairs_derivations(a, q), q
        if q.graded:
            assert derivations(a, q, graded=True).space == \
                all_pairs_derivations(a, q, graded=True), q


@FIELDS
@pytest.mark.parametrize("spec", REDUCED + CHANGED + [FREE], ids=spec_id)
def test_two_sided_jet_relations_are_the_all_pairs_relations(spec, field):
    a = algebra_of(spec, field)
    # the all-pairs oracle is slow on the larger sandwiches: free:2 only in catalog bases
    modules = [regular_bimodule(a)] + ([free_module(a, 2)] if spec in REDUCED else [])
    for p in modules:
        assert two_sided_jet(a, p).mu == all_pairs_two_sided_jet_relations(a, p), p


@FIELDS
def test_noncommutative_chains_and_jets_use_every_basis_element(field):
    # over K<x, y>/(words of length 4) the preimage of the δ kernel on x and
    # y alone is larger than the true one: the naive Grothendieck chain and
    # the iterated deltas must not be solved on generators there
    a = truncated_free_algebra("xy", 4, field)
    reg = regular_bimodule(a)
    hom = HomSpace.between(reg, reg)
    kernel_ = hom.common_kernel("delta")
    on_generators = preimage([hom.delta_ops()[g] for g in a.generator_indices()], kernel_)
    chain = all_basis_vanishing_chain(hom, "delta", 1)
    assert on_generators.dim > chain[1].dim
    with pytest.warns(UserWarning):
        assert grothendieck_diff(reg, reg, 1).chain == chain
    row = next(list(r) for r in on_generators.basis if not chain[1].contains(list(r)))
    phi = LinMap(reg, reg, hom.basis_maps(Subspace.from_spanning(field, hom.dim, [row]))[0])
    assert not hom.iterated_delta_vanishes(phi, 1)
    assert not all_basis_iterated_delta_vanishes(hom, phi, 1)
    # the exterior algebra on three odd generators is not commutative: its
    # first jet relations on generators alone would miss some
    g = catalog("grassmann:3", field)
    greg = regular_bimodule(g)
    assert jet_module(g, greg, 1, allow_noncommutative=True).mu == \
        all_basis_jet_relations(g, greg, 1)


def random_target(hom, rng, dim=3):
    f = hom.algebra.field
    return Subspace.from_spanning(f, hom.dim, [[f.coerce(rng.choice([0, 0, 0, 1, -1, 2]))
                                               for _ in range(hom.dim)] for _ in range(dim)])


@FIELDS
def test_a_target_that_is_not_stable_is_solved_on_every_member(field):
    a = catalog("trunc_poly:5", field)
    reg = regular_bimodule(a)
    hom = HomSpace(reg, reg)
    gens = [hom.delta_ops()[g] for g in a.generator_indices()]
    rng = random.Random(3)
    differ = 0
    for _ in range(20):
        target = random_target(hom, rng, rng.randrange(2, 13))
        full = all_basis_preimage(hom, "delta", target)
        assert hom.preimage("delta", target) == full
        differ += preimage(gens, target) != full
    # on generators alone most of these preimages would come out larger
    assert differ >= 5


def test_the_trunc_poly_kernel_builds_one_delta_operator(monkeypatch):
    built, widths = [], []
    image_span = jets.image_span

    def counting_kron_difference(a, b):
        built.append(a)
        return kron_difference(a, b)

    def recording_image_span(ops, space):
        widths.append(len(ops))
        return image_span(ops, space)

    monkeypatch.setattr(homspace, "kron_difference", counting_kron_difference)
    monkeypatch.setattr(jets, "image_span", recording_image_span)
    a = catalog("trunc_poly:5")
    reg = regular_bimodule(a)
    HomSpace.between(reg, reg).common_kernel("delta")
    assert len(built) == 1
    # the targets of these chains are found stable: their preimages are
    # solved on x alone too
    lunts_filtration(reg, reg, 2, "left")
    lunts_filtration(reg, reg, 2, "right")
    grothendieck_diff(reg, reg, 2)
    dv_first_order(reg, reg)
    assert len(built) == 1
    jet_module(a, reg, 2)
    assert widths == [1, 1, 1]


def test_the_trunc_poly_leibniz_system_has_one_generator_block(monkeypatch):
    import diffoplab.derivations as derivations_module

    heights = []
    kernel_ = derivations_module.kernel
    monkeypatch.setattr(derivations_module, "kernel",
                        lambda system: heights.append(system.rows) or kernel_(system))
    a = catalog("trunc_poly:5")
    q = regular_bimodule(a)
    derivations(a, q)
    # pairs (x, j) for the five j, and U(1) = 0: not the 25 pairs (i, j)
    assert heights == [(1 * 5 + 1) * q.dim]


def test_the_quaternion_two_sided_jet_seeds_pairs_of_generators(monkeypatch):
    calls = []
    closure_ = jets.closure
    monkeypatch.setattr(jets, "closure", lambda field, dim, seeds, ops: calls.append(
        (len(seeds), len(ops))) or closure_(field, dim, seeds, ops))
    a = catalog("quaternion")
    p = regular_bimodule(a)
    two_sided_jet(a, p)
    # (b, c) over the generators i and j, for each unit tensor, closed under
    # their outer left and right actions
    assert calls == [(2 * 2 * p.dim, 2 * 2)]


def counting_image_span(monkeypatch):
    import diffoplab.diffops as diffops
    import diffoplab.linalg as linalg

    calls = []
    image_span = linalg.image_span

    def counting(ops, space):
        calls.append(len(ops))
        return image_span(ops, space)

    for module in (linalg, homspace, diffops, jets):
        monkeypatch.setattr(module, "image_span", counting, raising=False)
    return calls


def test_presented_spans_on_trunc_poly_take_no_image_span(monkeypatch):
    calls = counting_image_span(monkeypatch)
    with redirect_stdout(io.StringIO()):
        assert main(["compare-defs", "trunc_poly:5", "--order", "2"]) == 0
    # the two-sided steps of orders 1 and 2 are closures under x
    assert calls == []


def test_presented_spans_on_every_index_take_image_span(monkeypatch):
    calls = counting_image_span(monkeypatch)
    with redirect_stdout(io.StringIO()):
        assert main(["compare-defs", "matrix:2", "--order", "1"]) == 0
    # matrix:2 keeps 3 of its 4 basis vectors, so every index is solved on,
    # and the one two-sided step spans its images under all four members of
    # each side's multiplications
    assert calls == [4, 4]


BROKEN_AT = (2, 4, 2)  # drop x^2·x^2 = x^4 from the left action of x^2


def broken_module_spec(tmp_path):
    d = regular_bimodule(trunc_poly(5)).to_json_dict()
    d["left"] = [e for e in d["left"] if tuple(e[:3]) != BROKEN_AT]
    d["name"] = "broken"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(d))
    return path


def report(argv, path):
    with redirect_stdout(io.StringIO()):
        code = main(argv + ["--json", str(path)])
    return code, path.read_bytes()


@pytest.mark.parametrize("flag", ["--module", "--target"])
@pytest.mark.parametrize("order", ["1", "2"])
def test_a_module_breaking_a_law_is_solved_on_every_basis_element(tmp_path, monkeypatch,
                                                                  flag, order):
    spec = broken_module_spec(tmp_path)
    broken = Bimodule.load(spec, trunc_poly(5))
    assert not broken.validate().ok
    assert not broken.follows_generators()
    argv = ["compare-defs", "trunc_poly:5", "--order", order, flag, str(spec)]
    got = report(argv, tmp_path / "got.json")
    # the oracle: every system imposed for every basis element
    with monkeypatch.context() as m:
        m.setattr(FiniteAlgebra, "generator_indices", lambda self: tuple(range(self.dim)))
        assert report(argv, tmp_path / "oracle.json") == got
    # solved on x alone, the broken action of x^2 would never be read
    with monkeypatch.context() as m:
        m.setattr(Bimodule, "follows_generators", lambda self: True)
        assert report(argv, tmp_path / "forced.json") != got


def noncommuting_module_spec(tmp_path):
    # x acts on K^3 by the shift N on the left and by Nᵀ on the right, x^k by
    # their k-th powers: each action follows its laws, but N Nᵀ ≠ Nᵀ N
    d = {"name": "noncommuting", "algebra": "trunc_poly:5", "dim": 3,
         "second_kind": "right", "left": [], "right": []}
    for k in range(5):
        for i in range(3 - k):
            d["left"].append([k, i, i + k, "1"])
            d["right"].append([k, i + k, i, "1"])
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps(d))
    return path


@pytest.mark.parametrize("flag", ["--module", "--target"])
@pytest.mark.parametrize("argv", [["compare-defs", "trunc_poly:5", "--order", "1"],
                                  ["compare-defs", "trunc_poly:5", "--order", "2"],
                                  ["diff-space", "trunc_poly:5", "--definition", "dv"]],
                         ids=["compare-defs-1", "compare-defs-2", "diff-space-dv"])
def test_a_module_whose_actions_do_not_commute_is_solved_on_every_basis_element(
        tmp_path, monkeypatch, flag, argv):
    spec = noncommuting_module_spec(tmp_path)
    module = Bimodule.load(spec, trunc_poly(5))
    assert {f["kind"] for f in module.validate().failures} == {"actions_commute"}
    assert not module.follows_generators()
    argv = argv + [flag, str(spec)]
    got = report(argv, tmp_path / "got.json")
    with monkeypatch.context() as m:
        m.setattr(FiniteAlgebra, "generator_indices", lambda self: tuple(range(self.dim)))
        assert report(argv, tmp_path / "oracle.json") == got
    # trusted, its δ kernel is not stable under the right actions, and the
    # preimage that dv_first_order takes of it is still solved on every member
    with monkeypatch.context() as m:
        m.setattr(Bimodule, "follows_generators", lambda self: True)
        assert report(argv, tmp_path / "trusted.json") == got


def mixed_module_spec(tmp_path):
    # A⊗A over the quaternions, whose second action is a left one
    a = catalog("quaternion")
    path = tmp_path / "mixed.json"
    tensor_algebra_module(a, regular_bimodule(a)).save(path)
    return path


@pytest.mark.parametrize("argv", [["compare-defs", "quaternion", "--order", "1"],
                                  ["lunts", "quaternion", "--order", "2", "--side", "right"]],
                         ids=["compare-defs", "lunts-right"])
def test_second_actions_of_two_kinds_are_solved_on_every_basis_element(tmp_path, monkeypatch,
                                                                       argv):
    # in A⊗A over the quaternions the second action is a left one: the
    # intertwiners of it with the regular right action on i and j alone are
    # not those on every basis element
    a = catalog("quaternion")
    reg = regular_bimodule(a)
    mixed = tensor_algebra_module(a, reg)
    assert mixed.second_kind == "left_bullet" and mixed.follows_generators()
    assert condition_indices(mixed) == a.generator_indices() == (1, 2)
    assert condition_indices(mixed, reg) == (0, 1, 2, 3)
    hom = HomSpace(mixed, reg)
    assert preimage([hom.bar_delta_ops()[g] for g in (1, 2)], Subspace.zero(a.field, hom.dim)) \
        != all_basis_common_kernel(hom, "bar_delta")
    argv = argv + ["--module", str(mixed_module_spec(tmp_path))]
    got = report(argv, tmp_path / "got.json")
    with monkeypatch.context() as m:
        m.setattr(FiniteAlgebra, "generator_indices", lambda self: tuple(range(self.dim)))
        assert report(argv, tmp_path / "oracle.json") == got


# module -> (its algebra, the writer of its JSON spec)
JSON_MODULES = {"broken": ("trunc_poly:5", broken_module_spec),
                "noncommuting": ("trunc_poly:5", noncommuting_module_spec),
                "mixed": ("quaternion", mixed_module_spec)}


@pytest.mark.parametrize("module", list(JSON_MODULES))
@pytest.mark.parametrize("argv", [["derivations", "--target"],
                                  ["two-sided", "--order", "2", "--module"],
                                  ["two-sided", "--order", "2", "--target"],
                                  ["jets", "--two-sided", "--module"],
                                  ["compare-defs", "--order", "2", "--target"]],
                         ids=["derivations", "two-sided-module", "two-sided-target",
                              "jets-two-sided", "compare-defs-2"])
def test_leibniz_rows_spans_and_jet_seeds_over_json_modules_read_as_on_every_basis_element(
        tmp_path, monkeypatch, module, argv):
    # Leibniz rows, presented spans and two-sided jet seeds over a module that
    # breaks a law, whose actions do not commute, or whose second action is
    # a left one are imposed for every basis element
    algebra, write = JSON_MODULES[module]
    command = argv[0]
    argv = [command, algebra] + argv[1:] + [str(write(tmp_path))]
    got = report(argv, tmp_path / "got.json")
    with monkeypatch.context() as m:
        m.setattr(FiniteAlgebra, "generator_indices", lambda self: tuple(range(self.dim)))
        assert report(argv, tmp_path / "oracle.json") == got
    # where the generators alone would give another report, the guard is what keeps it
    with monkeypatch.context() as m:
        if module == "mixed":
            m.setattr(jets, "condition_indices",
                      lambda *modules: modules[0].algebra.generator_indices())
        else:
            m.setattr(Bimodule, "follows_generators", lambda self: True)
        trusted = report(argv, tmp_path / "trusted.json")
    assert (trusted != got) == (module == "broken" or command == "jets"
                                or (module == "noncommuting" and command == "derivations"))


def test_the_walk_stops_once_more_than_half_the_basis_is_kept(monkeypatch):
    import diffoplab.algebra as algebra

    added = []
    add_operator = algebra.Closure.add_operator
    monkeypatch.setattr(algebra.Closure, "add_operator",
                        lambda self, op: added.append(op) or add_operator(self, op))
    a = catalog("trunc_poly:2+matrix:2")
    assert a.generator_indices() == tuple(range(6))
    # the fourth vector kept is more than half of six: it is not added
    assert len(added) == 3


def test_a_module_law_check_runs_once(monkeypatch):
    a = trunc_poly(5)
    reg = regular_bimodule(a)
    loaded = Bimodule.from_json_dict(reg.to_json_dict(), a)
    checks = []
    check = Bimodule._check_generator_laws
    monkeypatch.setattr(Bimodule, "_check_generator_laws",
                        lambda self: checks.append(self) or check(self))
    for _ in range(2):
        assert condition_indices(loaded, reg) == (1,)
    assert checks == [loaded]
    # modules built from the algebra follow its laws by construction
    assert free_module(a, 3).follows_generators() and checks == [loaded]


def test_a_graded_module_shifting_parity_wrongly_is_not_trusted():
    a = catalog("grassmann:2")
    reg = regular_bimodule(a)
    spec = reg.to_json_dict()
    spec["parity"] = [0, 0, 1, 1]
    wrong = Bimodule.from_json_dict(spec, a)
    assert not wrong.follows_generators()
    # read with these parities, θ1 and θ1θ2 act with the wrong shift on both
    # sides; θ2 still shifts 1 to θ2 and θ1 to θ1θ2
    assert wrong.validate().failures == [{"kind": f"{side}_parity", "witness": {"i": i}}
                                         for i in (1, 3) for side in ("left", "second")]
    assert Bimodule.from_json_dict(reg.to_json_dict(), a).follows_generators()


def wrong_parity_module_spec(tmp_path):
    # the regular module of grassmann:1 with θ read as even: θ then acts
    # without shifting parity
    d = regular_bimodule(catalog("grassmann:1")).to_json_dict()
    d["parity"] = [0, 0]
    path = tmp_path / "wrong_parity.json"
    path.write_text(json.dumps(d))
    return path


def test_check_module_reports_a_wrong_parity_shift(tmp_path):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check-module", "grassmann:1", "--module",
                     str(wrong_parity_module_spec(tmp_path))])
    assert code == 1
    assert out.getvalue().splitlines()[1] == (
        "INVALID: [{'kind': 'left_parity', 'witness': {'i': 1}}, "
        "{'kind': 'second_parity', 'witness': {'i': 1}}]")


@pytest.mark.parametrize("module", list(JSON_MODULES) + ["wrong_parity"])
def test_a_module_not_trusted_on_generators_fails_validation(tmp_path, module):
    # the generator laws are the validation laws over fewer indices: a module
    # failing them must fail validation too
    modules = {**JSON_MODULES, "wrong_parity": ("grassmann:1", wrong_parity_module_spec)}
    algebra, write = modules[module]
    m = Bimodule.load(write(tmp_path), catalog(algebra))
    assert m.follows_generators() == (module == "mixed")
    assert m.follows_generators() or not m.validate().ok


@pytest.mark.parametrize("spec", ["trunc_poly:3", "matrix:2", "quaternion", "grassmann:2"])
def test_every_built_in_module_follows_the_module_laws(spec):
    a = catalog(spec)
    reg = regular_bimodule(a)
    free = free_module(a, 2)
    modules = [reg, free, direct_sum(reg, free), tensor_algebra_module(a, reg),
               SandwichModule(a, reg).bimodule, right_dual(reg).bimodule,
               left_dual(reg).bimodule, UniversalCalculus(a).omega1_bimodule()]
    if not a.graded:
        modules.append(MinimalCalculus(a).one_forms_bimodule())
    for m in modules:
        assert m.validate().ok, m
        assert generator_laws_hold(a, a.generator_indices(), m.left, m.right, m.parity,
                                   m.second_kind == "right"), m


@FIELDS
@pytest.mark.parametrize("spec", CHANGED, ids=spec_id)
def test_a_change_of_basis_keeps_every_dimension_and_relation(spec, field):
    def invariants(a):
        reg = regular_bimodule(a)
        out = [derivations(a, reg).dim]
        for k in (1, 2):
            rep = compare_definitions(reg, reg, k).to_dict()
            out.append((rep["dims"], rep["relations"], rep["naive_grothendieck"]))
        if a.is_commutative():
            out.append([jet_module(a, reg, k).dim for k in (0, 1, 2)])
        return out

    assert invariants(algebra_of(spec, field)) == invariants(catalog(spec[0], field))
