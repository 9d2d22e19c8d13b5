"""Shared exception types, each carrying its exit code.

Every failure the package raises is a `PcohomError`.  Its class attribute
`exit_code` is what `cli.main` returns after writing one JSON error record:
1 (the default) for a cross-oracle disagreement or a broken internal
invariant, 2 for an exceeded search budget, 3 for malformed input.  A class
that derived from `ValueError`, `TypeError` or `RuntimeError` keeps that
builtin as a second base, so a library caller's `except ValueError` still
catches it.
"""


class PcohomError(Exception):
    """Base of every failure the package raises; `exit_code` is the exit
    status `cli.main` returns for it."""
    exit_code = 1


class ClosureCapExceeded(PcohomError):
    exit_code = 3


class NonNormalArguments(PcohomError):
    pass


class NotNormal(PcohomError):
    pass


class EmptyList(PcohomError):
    pass


class MixedParents(PcohomError):
    """Objects that must share a group, and for cochains a prime p, do
    not."""


class BudgetExceeded(PcohomError):
    exit_code = 2

    def __init__(self, message, explored=0):
        super().__init__(message)
        self.explored = explored


class GroupTooLarge(PcohomError):
    exit_code = 3


class NotInvariant(PcohomError):
    pass


class SolveRoundTripFailed(PcohomError):
    """A factored solver did not return the coordinates of the basis it
    was built from."""


class SectionDefectOutsideKernel(PcohomError, ValueError):
    """A section defect s(x) s(y) s(xy)^-1 of a central extension, read at
    a generator column (x, y), y a generator of Gbar, lies outside the
    kernel copy iota(Z).

    Lemma: lam maps the defect to x y (xy)^-1 = 1, so it lies in
    ker lam, which `CentralExtension` checks is iota(Z), together with a
    normalized section s; a defect outside it means the section was
    changed after that check."""


class WordTooShort(PcohomError):
    pass


class NonCommutingSquare(PcohomError):
    """A square of maps that must commute does not: a pairing square
    P1(a, beta b) = P2(alpha a, b), or q o pi1 = pi2 for the induced epi
    q: G/N1 -> G/N2.

    Lemma (`pairings.induced_epi`): q = pi2 o t for t a section of pi1, so
    q(pi1(g)) = pi2(g n) for some n in N1, which is pi2(g) iff n lies in
    N2; the square commutes for every g iff N1 <= N2."""


class EdgeCheckFailed(PcohomError, ValueError):
    """A table, hom, character or 2-cocycle failed its generator-edge check,
    or is not of the shape its definition needs.

    Lemma (core module docstring): each c > 0 is d*s for its BFS
    predecessor d < c and a generator s, so a law shown on every edge
    e -> e*s holds on all of G by induction on the BFS word.  The edge
    check is therefore complete, and a failed edge is a real violation of
    the group, hom, character or cocycle law."""


class SpecError(PcohomError, ValueError):
    """A malformed group, subgroup or family spec, or malformed arguments."""
    exit_code = 3


class NotASubgroup(PcohomError, ValueError):
    """A member set given to `core.Subgroup` is not a subgroup.

    Lemma: a finite set that contains 1 and is closed under multiplication
    is a subgroup, since each x has finite order k and x^-1 = x^(k-1) lies
    in it; Lagrange (|H| divides |G|) is checked first as a cheap
    necessary condition."""


class UnkeyedArgument(PcohomError, TypeError):
    """A `core.memo` function got an argument it cannot key: one of a type
    `_memo_key` does not know, or a keyed argument passed by name.

    Lemma (`core.memo`): a cached value is returned for equal keys, which is
    sound only when the value is a function of the keyed arguments; an
    argument outside the key could change the value and not the key."""


class SubgroupChainBroken(PcohomError, ValueError):
    """A term of a subgroup chain is not normal in the group, or is not
    inside the term before it.

    Lemma (`core._is_normal`): H is normal iff s^-1 H s <= H for every
    generator s, so normality is decided on the generators alone."""


class NotElementaryAbelian(PcohomError, ValueError):
    """A section a/b that must be an elementary abelian p-group is not.

    Lemma (`core._elementary_abelian_mod`): for normal b <= a and X
    generating a modulo b, a/b is elementary abelian iff x^p and [x, y]
    lie in b for all x, y in X; the images of X generate a/b, commuting
    generators make it abelian, and an abelian group generated by
    elements of order p has exponent p."""


class NotACentralExtension(PcohomError, ValueError):
    """The maps of a `unitriangular.CentralExtension` do not form
    0 -> Z -> E -> Gbar -> 1 with iota(Z) central, or its section is not a
    normalized section of lam.

    Lemma (`cohomology.classifying_cocycle`): the defect s(x) s(y) s(xy)^-1
    lies in ker lam, and reads back through iota to a normalized 2-cocycle
    of Gbar classifying E, when iota is injective, lam onto with kernel
    iota(Z), iota(Z) central, and lam(s(x)) = x with s(1) = 1."""


class FamilyWitnessFailed(PcohomError, ValueError):
    """A family extension's stored witnesses do not witness the standing
    assumptions of `unitriangular`: (I) the gammas' kernels meet in 1,
    (II) z_embed embeds Z into Gbar.

    Lemma (`TNotInsideTbar`): T <= Tbar rests on (I), since ker f is the
    intersection of the ker(gamma o f) only when the gammas' kernels meet
    in 1."""


class TNotInsideTbar(PcohomError, ValueError):
    """T(G) is not inside Tbar(G) for an Omega family.

    Lemma (the gamma homs, assumption (I) of `unitriangular`): the gammas
    of each Gbar have trivially intersecting kernels, so for f: G -> Gbar,
    ker f is the intersection of the ker(gamma o f).  When T lies in the
    kernel of every hom from G to each gamma's codomain, as it does for
    the gammas that land in E, T lies in every ker f, so T <= Tbar.  A
    failure means a family's witnesses do not give this, or a hom search
    missed a hom."""


class NotSurjective(PcohomError, ValueError):
    """A map that must be the quotient map pi: G -> G/N is not onto.

    Lemma: liftability of rhobar along pi is decided three ways (lift
    search, inflation, transgression), and the transgression leg reads
    the five-term exact sequence of 1 -> ker pi -> G -> Q -> 1, which holds
    only for pi onto Q."""


class NotACharacter(PcohomError, ValueError):
    """A cochain that must be a character G -> Z/p is not a verified one
    (a `cohomology.Cochain1` with is_hom=False).

    Lemma: for characters phi and psi, d(phi cup psi) = dphi cup psi -
    phi cup dpsi = 0, and the Bockstein carry v(x) + v(y) - v(xy) of a
    character's values v in [0, p) is 0 mod p; off the characters neither
    holds in general, so cup and the Bockstein take characters only."""


class PairingShapeMismatch(PcohomError, ValueError):
    """A pairing matrix whose shape is not (left labels, right labels).

    Lemma: a bilinear pairing L x R -> Z/p is fixed by its values on a
    basis of each side, one row per left label and one column per right
    label; a matrix of any other shape pairs some other spaces."""


class KernelMismatch(PcohomError, ValueError):
    """A quotient map has a kernel other than the subgroup it was built
    from: the induced epi q: G/N1 -> G/N2 (its kernel must be pi1(N2)), or
    the projection G -> G/N of `core.quotient_group` (lemma there).

    Lemma: q o pi1 = pi2 with pi1 onto, so q(pi1(g)) = 1 iff g lies in
    ker pi2 = N2; hence ker q = pi1(N2)."""


class OracleDisagreement(PcohomError, RuntimeError):
    """Two independent oracles disagree on a fact they both decide: the lift
    search against the vanishing inflation, B <= C <= A between the
    pairing subspaces, the well-definedness of an induced coker pairing,
    the series against the table criterion of Zassenhaus membership, or
    the degree-2 tower against its induced finite instance."""


class TransgressionSolveFailed(OracleDisagreement):
    """A class that the five-term exact sequence puts in the image of the
    transgression has no preimage: the inflation test and the
    transgression span disagree."""
