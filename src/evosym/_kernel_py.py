"""Term-map kernels: the inner loops of all expression arithmetic.

A differential expression is stored as a mapping ``key -> int`` of integer
numerators over one common denominator, which the caller keeps (see
``expr.DiffExpr``); every kernel below takes and returns ``int``
coefficients only.  A key is a pair ``(gens, rest)`` describing one
normalized term:

* ``gens`` -- the generator powers as one packed exponent vector (Monagan &
  Pearce, CASC 2007): the power of the generator of code ``gen`` (``u_i ->
  i``, ``x -> -1``, ``t -> -2``) is the ``FIELD_BITS``-bit field number
  ``gen + 2`` of the int, counted from the least significant bits, so t,
  x, u, u1, ... hold the fields 0, 1, 2, 3, ...; no generator is 0.
* ``rest`` -- a sorted tuple of the other slots, usually empty:

  * ``((1, name), power)``      -- named-constant power, nonzero int
    (constants are invertible, so powers may be negative).
  * ``((2, gen, cmono), coeff)`` -- one component of the single exponential
    factor of the term: ``coeff * cmono * gen`` inside the exponent, with
    ``cmono`` a tuple of named-constant slots ``((1, name), power)`` only,
    so the chain rule multiplies it in as it is.  ``coeff`` is an exact
    rational, an int when integral.

Multiplying two terms adds their ``gens`` as ints and the values of
matching ``rest`` slots, which are merged only when both rests are
nonempty; every kernel below is a loop of such products.  Zero values are
never stored.  ``D`` moves one unit of a ``u_i`` field to the ``u_{i+1}``
field, the power rule's coefficient is the field's value, and the chain
rule multiplies ``cmono`` into ``rest``.  A derivative multiplies a
coefficient by a slot value, which for a rational exponential rate brings
in its denominator: ``derive_terms``, the one derivation kernel (every
partial derivative and ``D``), scales its output by the lcm of the rate
denominators it meets and returns that scale beside it, so its products
stay integer.

Overflow is refused, never carried.  A field holds a power of at most
``MAX_POWER``, one bit short of the field, and that top bit is clear in
every stored key.  Two powers in range sum to less than a field, so a
product never carries into the next field, and one ``&`` with ``GUARD``
finds any field out of range.  Fields exist for ``u_0 .. u_MAX_U``, and
``GUARD`` also holds the lowest bit past them, which ``D`` of ``u_MAX_U``
would set.  A key that leaves its fields raises ``ExpressionError`` naming
the bound.

``expr`` alone reads keys, and gives them at its public boundary in the
slot-tuple layout: the generator slots ``((0, gen), power)`` by ascending
code, then ``rest``.
"""

from math import gcd

# A field holds a power up to 2^31 - 1 under its guard bit: every power one
# literal or tower of the grammar builds (at most 100,000) fits, and so do
# the products the benchmark and the corpus form, by far.
FIELD_BITS = 32
FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_POWER = FIELD_MASK >> 1
# The last u with a field: past the grammar's u99, which D and the
# library's ``u(i)`` reach.
MAX_U = 1000
_FIELDS = MAX_U + 3  # t, x, u_0 .. u_MAX_U
# the top bit of each field (the repunit in base 2^FIELD_BITS, shifted),
# and the lowest bit past the fields
GUARD = (((1 << (FIELD_BITS * _FIELDS)) - 1) // FIELD_MASK << (FIELD_BITS - 1)
         | 1 << (FIELD_BITS * _FIELDS))
X_UNIT = 1 << FIELD_BITS


class ExpressionError(ValueError):
    """Raised for operations that leave the expression class."""


def power_error() -> ExpressionError:
    return ExpressionError(f"generator power out of range (max {MAX_POWER})")


def index_error(i: int) -> ExpressionError:
    return ExpressionError(f"u-index {i} out of range (max {MAX_U})")


def _refused(gens: int) -> ExpressionError:
    """The error for a generator part with a field out of range."""
    if gens >> (FIELD_BITS * _FIELDS):
        return index_error(MAX_U + 1)
    return power_error()


def merge_slots(r1, r2):
    """Combine two sorted slot tuples (slot-wise addition of values)."""
    if not r1:
        return r2
    if not r2:
        return r1
    out = []
    i = j = 0
    n1 = len(r1)
    n2 = len(r2)
    while i < n1 and j < n2:
        s1, v1 = r1[i]
        s2, v2 = r2[j]
        if s1 == s2:
            v = v1 + v2
            if v:
                out.append((s1, v))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(r1[i])
            i += 1
        else:
            out.append(r2[j])
            j += 1
    if i < n1:
        out.extend(r1[i:])
    if j < n2:
        out.extend(r2[j:])
    return tuple(out)


def mul_key(k1, k2):
    """Combine two term keys: the product of their monomials."""
    g = k1[0] + k2[0]
    if g & GUARD:
        raise _refused(g)
    r1, r2 = k1[1], k2[1]
    return g, (merge_slots(r1, r2) if r1 and r2 else r1 or r2)


def add_into(acc, terms, factor):
    """In-place ``acc += factor * terms``; drops keys whose coefficient cancels."""
    if not factor:
        return
    get = acc.get
    for key, c in terms.items():
        v = get(key)
        if v is None:
            acc[key] = c * factor
        else:
            v = v + c * factor
            if v:
                acc[key] = v
            else:
                del acc[key]


def addmul_into(acc, a, b, factor):
    """In-place ``acc += factor * a * b``: each term pair goes straight into
    ``acc`` (no product dict is built); drops keys whose coefficient
    cancels."""
    if not factor or not a or not b:
        return
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for (ga, ra), ca in a.items():
        ca *= factor
        for (gb, rb), cb in b.items():
            g = ga + gb
            if g & GUARD:
                raise _refused(g)
            k = g, (merge_slots(ra, rb) if ra and rb else ra or rb)
            v = get(k)
            if v is None:
                acc[k] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    acc[k] = v
                else:
                    del acc[k]


def mul_single(terms, key, coeff):
    """Product of a term map with one term ``coeff * key``: each term
    gives one, since a product with one monomial is one-to-one on keys;
    ``coeff`` is nonzero."""
    g0, r0 = key
    if not g0 and not r0:
        return {k: c * coeff for k, c in terms.items()}
    out = {}
    for (g, r), c in terms.items():
        g += g0
        if g & GUARD:
            raise _refused(g)
        out[g, (merge_slots(r, r0) if r and r0 else r or r0)] = c * coeff
    return out


def mul_terms(a, b):
    """Full product of two term maps."""
    out = {}
    addmul_into(out, a, b, 1)
    return out


def derive_terms(a, gen=None):
    """A derivation of a term map: ``d/dgen`` for a generator code ``gen``,
    the total x-derivative ``D = d/dx + sum u_{i+1} d/du_i`` for ``None``.

    Every derivation here is one rule applied per generator power and per
    exponential component, and differs only in the image of each
    generator: ``d/dgen`` sends ``gen`` to 1 and the others to 0; ``D``
    sends ``x`` to 1, ``u_i`` to ``u_{i+1}`` and ``t`` to 0.  The power
    rule replaces one factor of a generator power by its image, and the
    chain rule turns each exponential component ``coeff * cmono * gen``
    (the exponent is linear) into ``coeff * cmono`` times the image of
    ``gen``.  Returns ``(terms, m)``: the derivative is ``terms / m``, with
    ``m`` the lcm of the denominators of the rates met.
    """
    total = gen is None
    shift = None if total or gen < -2 else FIELD_BITS * (gen + 2)
    out = {}
    get = out.get
    m = 1
    for (g, rest), c0 in a.items():
        c = c0 * m
        # the power rule: z holds the fields from x up for D, which sends t
        # to 0, or the one field of gen; sh is the offset of z's lowest
        # field in g
        if total:
            z, sh = g >> FIELD_BITS, FIELD_BITS
        elif shift is not None:
            z, sh = (g >> shift) & FIELD_MASK, shift
        else:
            z = 0
        while z:
            v = z & FIELD_MASK
            if v:
                if total and sh != FIELD_BITS:
                    # u_i -> u_{i+1}: one unit moves to the field above
                    ng = g + (FIELD_MASK << sh)
                    if ng & GUARD:
                        raise _refused(ng)
                else:  # the image 1
                    ng = g - (1 << sh)
                nk = ng, rest
                nc = c * v
                w = get(nk)
                if w is None:
                    out[nk] = nc
                else:
                    w = w + nc
                    if w:
                        out[nk] = w
                    else:
                        del out[nk]
            z >>= FIELD_BITS
            sh += FIELD_BITS
        # the chain rule through the exponential's components
        for slot, val in rest:
            if slot[0] != 2:
                continue
            g2 = slot[1]
            if total:
                if g2 == -2:  # D(t) = 0
                    continue
                ng = g
                if g2 >= 0:  # the image u_{g2+1}
                    ng += X_UNIT << (FIELD_BITS * (g2 + 2))
                    if ng & GUARD:
                        raise _refused(ng)
            elif g2 != gen:
                continue
            else:
                ng = g
            nk = ng, merge_slots(rest, slot[2])
            if type(val) is int:
                nc = c * val
            else:
                q = val.denominator
                if m % q:
                    r = rescale(out, m, q)
                    c *= r
                    m *= r
                nc = c // q * val.numerator
            w = get(nk)
            if w is None:
                out[nk] = nc
            else:
                w = w + nc
                if w:
                    out[nk] = w
                else:
                    del out[nk]
    return out, m


def rescale(out, m, q):
    """The least factor ``r`` that makes ``m * r`` a multiple of ``q``;
    ``out``, a term map on scale ``m``, is multiplied by it in place."""
    r = q // gcd(m, q)
    if r != 1:
        for k in out:
            out[k] *= r
    return r
