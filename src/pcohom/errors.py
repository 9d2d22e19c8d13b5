"""Shared exception types."""


class ClosureCapExceeded(Exception):
    pass


class MixedElementKinds(Exception):
    pass


class NonNormalArguments(Exception):
    pass


class NotNormal(Exception):
    pass


class EmptyList(Exception):
    pass


class MixedParents(Exception):
    pass


class BudgetExceeded(Exception):
    def __init__(self, message, explored=0):
        super().__init__(message)
        self.explored = explored


class GroupTooLarge(Exception):
    pass


class NotInvariant(Exception):
    pass


class TransgressionSolveFailed(Exception):
    pass


class SolveRoundTripFailed(Exception):
    """A factored solver did not return the coordinates of the basis it
    was built from."""


class SectionDefectOutsideKernel(ValueError):
    """A section defect s(x) s(y) s(xy)^-1 of a central extension lies
    outside the kernel copy iota(Z).

    Lemma: lam maps the defect to x y (xy)^-1 = 1, so it lies in
    ker lam, which `CentralExtension` checks is iota(Z); a defect outside
    it means the extension's tables and section disagree."""


class WordTooShort(Exception):
    pass


class NonCommutingSquare(Exception):
    """A square of maps that must commute does not: a pairing square
    P1(a, beta b) = P2(alpha a, b), or q o pi1 = pi2 for the induced epi
    q: G/N1 -> G/N2.

    Lemma (`pairings.induced_epi`): q = pi2 o t for t a section of pi1, so
    q(pi1(g)) = pi2(g n) for some n in N1, which is pi2(g) iff n lies in
    N2; the square commutes for every g iff N1 <= N2."""


class EdgeCheckFailed(ValueError):
    """A table, hom, character or 2-cocycle failed its generator-edge check.

    Lemma (core module docstring): each c > 0 is d*s for its BFS
    predecessor d < c and a generator s, so a law shown on every edge
    e -> e*s holds on all of G by induction on the BFS word.  The edge
    check is therefore complete, and a failed edge is a real violation of
    the group, hom, character or cocycle law."""


class SpecError(ValueError):
    """A malformed group, subgroup or family spec, or malformed arguments."""


class SubgroupChainBroken(ValueError):
    """A term of a subgroup chain is not normal in the group, or is not
    inside the term before it.

    Lemma (`core._is_normal`): H is normal iff s^-1 H s <= H for every
    generator s, so normality is decided on the generators alone."""


class NotElementaryAbelian(ValueError):
    """A section a/b that must be an elementary abelian p-group is not.

    Lemma (`core._elementary_abelian_mod`): for normal b <= a and X
    generating a modulo b, a/b is elementary abelian iff x^p and [x, y]
    lie in b for all x, y in X; the images of X generate a/b, commuting
    generators make it abelian, and an abelian group generated by
    elements of order p has exponent p."""


class TNotInsideTbar(ValueError):
    """T(G) is not inside Tbar(G) for an Omega family.

    Lemma (the gamma homs, assumption (I) of `unitriangular`): the gammas
    of each Gbar have trivially intersecting kernels, so for f: G -> Gbar,
    ker f is the intersection of the ker(gamma o f).  When T lies in the
    kernel of every hom from G to each gamma's codomain, as it does for
    the gammas that land in E, T lies in every ker f, so T <= Tbar.  A
    failure means a family's witnesses do not give this, or a hom search
    missed a hom."""


class NotSurjective(ValueError):
    """A map that must be the quotient map pi: G -> G/N is not onto.

    Lemma: liftability of rhobar along pi is decided three ways (lift
    search, inflation, transgression), and the transgression leg reads
    the five-term exact sequence of 1 -> ker pi -> G -> Q -> 1, which holds
    only for pi onto Q."""


class NotACharacter(ValueError):
    """A cochain that must be a character G -> Z/p is not a verified one
    (a `cohomology.Cochain1` with is_hom=False).

    Lemma: for characters phi and psi, d(phi cup psi) = dphi cup psi -
    phi cup dpsi = 0, and the Bockstein carry v(x) + v(y) - v(xy) of a
    character's values v in [0, p) is 0 mod p; off the characters neither
    holds in general, so cup and the Bockstein take characters only."""


class PairingShapeMismatch(ValueError):
    """A pairing matrix whose shape is not (left labels, right labels).

    Lemma: a bilinear pairing L x R -> Z/p is fixed by its values on a
    basis of each side, one row per left label and one column per right
    label; a matrix of any other shape pairs some other spaces."""


class KernelMismatch(ValueError):
    """A quotient map has a kernel other than the subgroup it was built
    from: the induced epi q: G/N1 -> G/N2 (its kernel must be pi1(N2)), or
    the projection G -> G/N of `core.quotient_group` (lemma there).

    Lemma: q o pi1 = pi2 with pi1 onto, so q(pi1(g)) = 1 iff g lies in
    ker pi2 = N2; hence ker q = pi1(N2)."""


class OracleDisagreement(RuntimeError):
    """Two independent oracles disagree on a fact they both decide: the lift
    search against the vanishing inflation, B <= C <= A between the
    pairing subspaces, or the well-definedness of an induced coker pairing.
    The CLI reports it as one JSON error record and exit 1."""
