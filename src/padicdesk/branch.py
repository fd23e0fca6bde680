"""Branching eigenvectors for the block subgroup inside the Levi.

The Levi M has (per distinguished component) shape GL_1 x GL_(2n-1), and
GL_2n at the other components; the subgroup cut out by the block structure
is GL_1 x GL_(n-1) x GL_n at the distinguished component and GL_n x GL_n
elsewhere.  The branching vector is the unique (up to scalar) joint
eigenvector for that subgroup acting diagonally on V_kappa tensor the
degree-j polynomial twist; it is found by an exact linear solve, weight
space first.

Group points are carried as MPoint objects (similitude scalar, the GL_1
entry of the distinguished component, and one matrix per component).
Coordinates on the big-cell column are a_2..a_2n, stored 0-based
(variable k-2 for a_k).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm

from .glrep import GLBlockModel, WeightData, cone_decompose, generator_weights, weyl_dimension
from .iwahori import u_element
from .matrices import ExactMatrix, rational_inverse
from .polynomials import image_kernel
from .rationals import integer


class MPoint:
    """A point of the Levi: similitude, distinguished GL_1 entry, block matrices.

    blocks[0] is (2n-1) x (2n-1); blocks[t] for t >= 1 are 2n x 2n.
    """

    def __init__(self, sim, g1, blocks):
        self.sim = Fraction(sim)
        self.g1 = Fraction(g1)
        self.blocks = [b if isinstance(b, ExactMatrix) else ExactMatrix(b) for b in blocks]

    @classmethod
    def identity(cls, n: int, d: int) -> "MPoint":
        blocks = [ExactMatrix.identity(2 * n - 1)] + [ExactMatrix.identity(2 * n) for _ in range(d - 1)]
        return cls(1, 1, blocks)


@lru_cache(maxsize=None)
def u_conjugator(n: int, d: int) -> MPoint:
    """The open-orbit conjugating element u of the Levi, from `iwahori.u_element`.

    Distinguished block: identity plus lower entries feeding coordinate
    a_(n+1-i) into a_(n+1+i); other components: unipotent with the
    antidiagonal in the lower-left n x n block.  Its entries are ints, so
    u g is int arithmetic at an integral g.  Built once per (n, d) and
    shared: callers must not mutate it.
    """
    def ints(rows):
        return ExactMatrix([integer(x, "u entry") for x in row] for row in rows)

    return MPoint(1, 1, [ints(row[1:] for row in u_element(n, True).rows[1:])]
                  + [ints(u_element(n, False).rows)] * (d - 1))


def v_basepoint(n: int, d: int) -> MPoint:
    """The normalization point v (lower unipotent in the second block column)."""
    one, zero = Fraction(1), Fraction(0)
    v2 = [[one if i == j or (j == n - 1 and i > j) else zero for j in range(2 * n - 1)]
          for i in range(2 * n - 1)]
    return MPoint(1, 1, [ExactMatrix(v2)] + [ExactMatrix.identity(2 * n) for _ in range(d - 1)])


def column_point(n: int, a_coords) -> MPoint:
    """The subgroup point z(a) used as the evaluation oracle on the box.

    Entry a_(n+1) sits on the diagonal; the rows below it receive the folded
    coordinates a_(n+1-i) + a_(n+1+i).
    """
    a = [Fraction(x) for x in a_coords]
    z2 = {(i, i): Fraction(1) for i in range(2 * n - 1)}
    z2[n - 1, n - 1] = a[n - 1]
    z2.update(((n - 1 + i, n - 1), a[n - 1 - i] + a[n - 1 + i]) for i in range(1, n))
    return MPoint(1, 1, [ExactMatrix.sparse(2 * n - 1, z2)])


# ---------------------------------------------------------------------------


def _multisets(n: int, size: int):
    """Multisets of {n+1..2n} as sorted tuples (variable indices n-1..2n-2)."""
    return list(combinations_with_replacement(range(n - 1, 2 * n - 1), size))


class BranchModel:
    """V_kappa tensor S_(-j) with the solved branching eigenvector."""

    def __init__(self, wd: WeightData, dim_cap: int = 500):
        bad = wd.cone_violation()
        if bad is not None:
            raise ValueError(f"(kappa, j) is not in the weight cone: {bad}")
        self.wd = wd
        n, d = wd.n, wd.d
        dims = [weyl_dimension(wd.kappa[0][1:])] + [weyl_dimension(wd.kappa[t]) for t in range(1, d)]
        sdim = len(_multisets(n, wd.j[0]))
        total = sdim
        for dd in dims:
            total *= dd
        if total > dim_cap:
            raise ValueError(f"model dimension {total} exceeds cap {dim_cap}")
        self.blocks = [GLBlockModel(2 * n - 1, wd.kappa[0][1:], "upper", dim_cap)]
        for t in range(1, d):
            self.blocks.append(GLBlockModel(2 * n, wd.kappa[t], "upper", dim_cap))
        self.s_basis = _multisets(n, wd.j[0])
        self.index = []
        self._build_index()
        self.dimension = len(self.index)
        if self.dimension != total:
            raise ArithmeticError(f"model index has {self.dimension} entries, expected {total}")
        self._solve()

    def _build_index(self):
        def rec(t, built):
            if t == len(self.blocks):
                for J in self.s_basis:
                    self.index.append((tuple(built), J))
                return
            for i in range(self.blocks[t].dimension):
                rec(t + 1, built + [i])

        rec(0, [])
        self._index_map = {k: i for i, k in enumerate(self.index)}

    # -- weights --------------------------------------------------------

    def _total_weight(self, q: int) -> tuple:
        """Weight of basis vector q at the 2n tau0-positions then 2n per extra component."""
        (block_idx, J) = self.index[q]
        n, wd = self.wd.n, self.wd
        out = []
        # tau0: position 0 carries the GL_1 character plus the twist degree
        w0 = list(self.blocks[0].true_weight(block_idx[0]))
        pos0 = wd.kappa[0][0] + len(J)
        svec = [0] * (2 * n - 1)
        for var in J:
            svec[var] -= 1
        out.append(pos0)
        for i in range(2 * n - 1):
            out.append(w0[i] + svec[i])
        for t in range(1, wd.d):
            out.extend(self.blocks[t].true_weight(block_idx[t]))
        return tuple(out)

    def _target_weight(self) -> tuple:
        wd = self.wd
        n = wd.n
        k0 = wd.kappa[0]
        w = wd.w
        out = [k0[0] + wd.j[0]]
        out += [-k0[n] + wd.j[0] + w] * (n - 1)
        out += [k0[n] - wd.j[0]] * n
        for t in range(1, wd.d):
            out += [wd.j[t]] * n + [-wd.j[t]] * n
        return tuple(out)

    # -- Lie actions ------------------------------------------------------

    def block_word_action(self, comp: int, word, block_idx: tuple):
        """Apply a word of component comp's generators to the block part of a basis vector.

        Yields (block indices, coeff).  Component 0's generators carry full
        2n x 2n indices, never the GL_1 slot 0: its GL_(2n-1) block sits at
        full indices 1..2n-1.
        """
        if comp == 0:
            word = [(a - 1, b - 1) for (a, b) in word]
        for i2, c2 in self.blocks[comp].basis_word_action(word, block_idx[comp]).items():
            yield block_idx[:comp] + (i2,) + block_idx[comp + 1:], c2

    def _apply_lie(self, comp: int, a: int, b: int, q: int) -> dict:
        """Image of basis vector q under E_(a,b), a != b, of component comp."""
        (block_idx, J) = self.index[q]
        out: dict = {}
        for nb, c in self.block_word_action(comp, [(a, b)], block_idx):
            _acc(out, self._lookup(nb, J), c)
        e = J.count(a - 1) if comp == 0 else 0
        if e:
            # the twist: x^J -> -e x^(J - {a-1} + {b-1})
            J2 = list(J)
            J2.remove(a - 1)
            _acc(out, self._lookup(block_idx, tuple(sorted(J2 + [b - 1]))), Fraction(-e))
        return {k: v for k, v in out.items() if v}

    def _lookup(self, block_idx: tuple, J: tuple) -> int:
        return self._index_map[(block_idx, J)]

    def _subgroup_offdiag(self):
        """Off-diagonal Lie generators of the block subgroup, per component."""
        n = self.wd.n
        out = []
        blocks0 = [range(1, n), range(n, 2 * n)]
        for blk in blocks0:
            for a in blk:
                for b in blk:
                    if a != b:
                        out.append((0, a, b))
        for t in range(1, self.wd.d):
            for blk in (range(0, n), range(n, 2 * n)):
                for a in blk:
                    for b in blk:
                        if a != b:
                            out.append((t, a, b))
        return out

    # -- the solve --------------------------------------------------------

    def _solve(self):
        target = self._target_weight()
        subspace = [q for q in range(self.dimension) if self._total_weight(q) == target]
        if not subspace:
            raise ArithmeticError("eigenspace dimension 0: empty weight space")
        sol = image_kernel(([self._apply_lie(comp, a, b, q) for q in subspace]
                            for (comp, a, b) in self._subgroup_offdiag()), len(subspace))
        self.eigen_dimension = len(sol)
        if len(sol) != 1:
            raise ArithmeticError(
                f"eigenspace dimension {len(sol)} != 1: multiplicity one fails at this instance")
        self.coords = {q: sol[0][pos] for pos, q in enumerate(subspace) if sol[0][pos]}
        nv = self.normalization_value()
        if nv == 0:
            raise ArithmeticError("open-orbit normalization value vanished")
        self.coords = {q: c / nv for q, c in self.coords.items()}

    # -- evaluation -------------------------------------------------------

    def _pairing(self, g: MPoint, column, coords: dict):
        """sum over coords of c_q * V_q(g) * x^(J_q)(column): every pairing goes through here.

        The sum runs over numerators, as one int at a rational point g: the
        coordinates over their common denominator, the column over its own L
        (every J_q has j_0 entries) and each block's basis numerators over
        its factor, which carries the block's 1/L^degree and det twist.  The
        denominators and factors are applied once, at the end.
        """
        wd = self.wd
        factor = g.sim ** (-wd.kappa0) * g.g1 ** (-wd.kappa[0][0])
        tables = []
        for t, model in enumerate(self.blocks):
            numerators, block_factor = model.basis_numerators(
                g.blocks[t], {self.index[q][0][t] for q in coords})
            tables.append(numerators)
            factor = factor * block_factor
        col_den = lcm(*(x.denominator for x in column))
        col = [x.numerator * (col_den // x.denominator) for x in column]
        den = lcm(*(c.denominator for c in coords.values()))
        total = 0
        for q, c in coords.items():
            block_idx, J = self.index[q]
            term = c.numerator * (den // c.denominator)
            for t, i in enumerate(block_idx):
                term = term * tables[t][i]
            for v in J:
                term = term * col[v]
            total = total + term
        return total * factor / (den * col_den ** wd.j[0])

    def pair_value(self, g: MPoint, h: MPoint):
        """Value of the solved vector as a function on (Levi) x (subgroup)."""
        n = self.wd.n
        column = [h.blocks[0].rows[i][n - 1] / h.g1 for i in range(2 * n - 1)]
        return self._pairing(g, column, self.coords)

    def normalization_value(self):
        """The pairing at (u, v); the solved vector is scaled so that it is 1."""
        n, d = self.wd.n, self.wd.d
        return self.pair_value(u_conjugator(n, d), v_basepoint(n, d))

    def open_orbit_value(self, g: MPoint, h: MPoint):
        """x-normalized pairing: the vector conjugated by u, then evaluated."""
        return self.pair_value(_mpoint_mul(u_conjugator(self.wd.n, self.wd.d), g), h)

    def box_restriction_value(self, g: MPoint, a_coords):
        """Value at (Iwahori point, box point) of the doubly-u-conjugated vector.

        Equals the open-orbit pairing against the column point z(a); on the
        unit box times the depth-beta congruence unipotent this is a p-unit,
        congruent to a_(n+1)^j mod p^beta.
        """
        n = self.wd.n
        a = [Fraction(x) for x in a_coords]
        folded = list(a)
        for i in range(1, n):
            folded[n - 1 + i] = a[n - 1 + i] + a[n - 1 - i]
        return self._pairing(_mpoint_mul(u_conjugator(n, self.wd.d), g), folded, self.coords)

    def box_value_bits(self, entry_bits: int) -> int:
        """A bound on the bit lengths of the numerator and the denominator of
        `box_restriction_value` at an integral point with unit similitude and
        GL_1 entry and det-1 blocks, as `suites.random_congruence_unipotent`
        draws, and at integral box coordinates, all below 2^entry_bits in
        absolute value.

        A row of u has at most two nonzero entries, both 1, so each entry of
        u g and each folded coordinate is below 2^(entry_bits + 1).  Every
        factor of the pairing is 1, so the value's denominator divides the
        coordinates' common denominator.
        """
        den = lcm(*(c.denominator for c in self.coords.values()))
        bits = entry_bits + 1
        top = 0  # the most bits of one term c_q den * prod N_(t,q) * x^(J_q)
        for q, c in self.coords.items():
            block_idx, J = self.index[q]
            term = (c.numerator * (den // c.denominator)).bit_length() + len(J) * bits
            term += sum(model.numerator_bits(i, bits) for model, i in zip(self.blocks, block_idx))
            top = max(top, term)
        return max(top + len(self.coords).bit_length(), den.bit_length())

    def cpol_value(self, g: MPoint, a_coords, coords=None):
        """Raw pairing against big-cell column coordinates (no conjugation).

        Evaluates sum c_q * V_q(g) * x_q(a) for the given coordinate vector
        (default: the solved one).
        """
        return self._pairing(g, [Fraction(x) for x in a_coords],
                             self.coords if coords is None else coords)

    # -- group-level eigen test -------------------------------------------

    def subgroup_action_coords(self, m: MPoint) -> dict:
        """Coordinates of (diagonal subgroup action of m) applied to the vector."""
        wd = self.wd
        sim_factor = m.sim ** wd.kappa0 * m.g1 ** wd.kappa[0][0]
        # S-part substitution: a -> (g1 * block^-1) a, one linear form per variable
        inv0 = rational_inverse(m.blocks[0])
        forms = [[(l, c * m.g1) for l, c in enumerate(row) if c] for row in inv0.rows]
        det_facs = [Fraction(m.blocks[t].det()) ** model.shift
                    for t, model in enumerate(self.blocks)]
        out: dict = {}
        for q, c in self.coords.items():
            (block_idx, J) = self.index[q]
            new_blocks = [[(i2, c2 * det_facs[t]) for i2, c2
                           in model.basis_group_action(m.blocks[t], block_idx[t]).items()]
                          for t, model in enumerate(self.blocks)]
            s_terms = _substitute_multiset(J, forms)

            def rec(t, idx_built, coeff):
                if t == len(new_blocks):
                    for J2, c2 in s_terms.items():
                        _acc(out, self._lookup(tuple(idx_built), J2), c * coeff * c2 * sim_factor)
                    return
                for (i2, c2) in new_blocks[t]:
                    rec(t + 1, idx_built + [i2], coeff * c2)

            rec(0, [], Fraction(1))
        return {k: v for k, v in out.items() if v}

    def eigen_character_value(self, m: MPoint):
        """sigma(m) for the solved eigencharacter (the action multiplies by 1/sigma)."""
        wd = self.wd
        n = wd.n
        k0 = wd.kappa[0]
        w = wd.w
        y1 = m.g1
        det2 = _subdet(m.blocks[0], range(0, n - 1))
        det3 = _subdet(m.blocks[0], range(n - 1, 2 * n - 1))
        val = (m.sim ** (-wd.kappa0) * y1 ** (-k0[0] - wd.j[0])
               * det2 ** (k0[n] - wd.j[0] - w) * det3 ** (-k0[n] + wd.j[0]))
        for t in range(1, wd.d):
            z1 = _subdet(m.blocks[t], range(0, n))
            z2 = _subdet(m.blocks[t], range(n, 2 * n))
            val = val * z1 ** (-wd.j[t]) * z2 ** (wd.j[t])
        return val

    def eigen_check(self, m: MPoint) -> bool:
        """Exact group-level check of the eigen property for a subgroup point m."""
        acted = self.subgroup_action_coords(m)
        lam = Fraction(1) / self.eigen_character_value(m)
        want = {q: c * lam for q, c in self.coords.items()}
        return acted == {k: v for k, v in want.items() if v}

    def to_json(self) -> dict:
        return {
            "weight": self.wd.to_json(),
            "dimension": self.dimension,
            "eigenspace_dimension": self.eigen_dimension,
            "basis_labels": [[list(b), list(J)] for (b, J) in self.index],
            "coordinates": {str(q): f"{c.numerator}/{c.denominator}"
                            for q, c in sorted(self.coords.items())},
        }


def _acc(d: dict, k, v):
    d[k] = d.get(k, Fraction(0)) + v


def _substitute_multiset(J: tuple, forms) -> dict:
    """prod over v in the multiset J of the linear form forms[v], as {multiset: c}.

    forms[v] lists (variable, coefficient) pairs; multisets are sorted tuples.
    """
    out = {(): Fraction(1)}
    for v in J:
        nxt: dict = {}
        for J1, c1 in out.items():
            for l, c2 in forms[v]:
                _acc(nxt, tuple(sorted(J1 + (l,))), c1 * c2)
        out = {J2: c for J2, c in nxt.items() if c}
    return out


def _subdet(mat: ExactMatrix, idx):
    idx = list(idx)
    sub = ExactMatrix([[mat.rows[i][j] for j in idx] for i in idx])
    return sub.det()


def _mpoint_mul(x: MPoint, y: MPoint) -> MPoint:
    return MPoint(x.sim * y.sim, x.g1 * y.g1,
                  [a * b for a, b in zip(x.blocks, y.blocks)])


# ---------------------------------------------------------------------------
# the locally algebraic restriction through the cone generators


class GeneratorFamily:
    """Branch models for the distinguished generating weights of the cone.

    Used to assemble locally algebraic restrictions multiplicatively; the
    similitude generator is a pure character and needs no model.
    """

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self.weights = generator_weights(n, d)
        self.models = {}
        for key, wd in self.weights.items():
            if key == "mu0":
                continue
            self.models[key] = BranchModel(wd)

    def generator_values(self, g: MPoint, a_coords) -> dict:
        """Box-restriction value of every generator at the same point pair."""
        out = {"mu0": g.sim}
        for key, model in self.models.items():
            out[key] = model.box_restriction_value(g, a_coords)
        return out


def algebraic_product_value(family: GeneratorFamily, wd: WeightData,
                            g: MPoint, a_coords):
    """Reassemble the restriction of (kappa, j) from the cone generators.

    Returns prod of generator values raised to the decomposition exponents;
    agrees with the directly computed restriction on the unit box.
    """
    return _generator_product(wd, family.generator_values(g, a_coords))


def _generator_product(wd: WeightData, vals: dict):
    """prod over the cone decomposition of wd of vals[generator] ** exponent."""
    out = Fraction(1)
    for key, a in cone_decompose(wd).items():
        out *= Fraction(vals[key]) ** a
    return out


def twisted_product_value(family: GeneratorFamily, wd: WeightData, chi: list,
                          g: MPoint, a_coords):
    """The locally algebraic restriction for the twist (kappa, j + chi).

    chi lists one finite-order character per component; the exponents on
    the mixed generators become x -> x^a chi(x)^(+-1), evaluated on the
    p-unit generator values.  The result is cyclotomic-valued, extended by
    zero off the unit box.
    """
    from .cyclotomic import CyclotomicElement
    from .mahler import in_unit_box

    p = chi[0].p
    if not in_unit_box(a_coords, wd.n, p):
        return CyclotomicElement.from_rational(0)
    vals = family.generator_values(g, a_coords)
    out = CyclotomicElement.from_rational(_generator_product(wd, vals))
    for t in range(wd.d):
        out = out * chi[t](vals[("mu", wd.n, t)]).inverse()
        out = out * chi[t](vals[("b", t)])
    return out
