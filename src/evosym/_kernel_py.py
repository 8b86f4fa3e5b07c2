"""Term-map kernels: the inner loops of all expression arithmetic.

A differential expression is stored as a mapping ``key -> int`` of integer
numerators over one common denominator, which the caller keeps (see
``expr.DiffExpr``); every kernel below takes and returns ``int``
coefficients only.  A key is a sorted tuple of ``(slot, value)`` pairs
describing one normalized term:

* ``((0, gen), power)``       -- generator power; ``gen`` is an int code
  (``u_i -> i``, ``x -> -1``, ``t -> -2``), ``power`` a positive int.
* ``((1, name), power)``      -- named-constant power, nonzero int (constants
  are invertible, so powers may be negative).
* ``((2, gen, cmono), coeff)`` -- one component of the single exponential
  factor of the term: ``coeff * cmono * gen`` inside the exponent, with
  ``cmono`` a key of named-constant slots ``((1, name), power)`` only, so
  the chain rule multiplies it in as it is.  ``coeff`` is an exact
  rational, an int when integral.

Multiplying two terms adds the values of matching slots, which makes every
kernel below a merge or a merge-of-products.  Zero values are never stored.
A derivative multiplies a coefficient by a slot value, which for a rational
exponential rate brings in its denominator: ``derive_terms``, the one
derivation kernel (every partial derivative and ``D``), scales its output by
the lcm of the rate denominators it meets and returns that scale beside it,
so its products stay integer.
"""

from math import gcd


def mul_key(k1, k2):
    """Combine two term keys (slot-wise addition of values)."""
    if not k1:
        return k2
    if not k2:
        return k1
    out = []
    i = j = 0
    n1 = len(k1)
    n2 = len(k2)
    while i < n1 and j < n2:
        s1, v1 = k1[i]
        s2, v2 = k2[j]
        if s1 == s2:
            v = v1 + v2
            if v:
                out.append((s1, v))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    if i < n1:
        out.extend(k1[i:])
    if j < n2:
        out.extend(k2[j:])
    return tuple(out)


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
    for ka, ca in a.items():
        ca *= factor
        for kb, cb in b.items():
            k = mul_key(ka, kb)
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
    if not key:
        return {k: c * coeff for k, c in terms.items()}
    return {mul_key(k, key): c * coeff for k, c in terms.items()}


def mul_terms(a, b):
    """Full product of two term maps."""
    out = {}
    addmul_into(out, a, b, 1)
    return out


def derive_terms(a, gen=None):
    """A derivation of a term map: ``d/dgen`` for a generator code ``gen``,
    the total x-derivative ``D = d/dx + sum u_{i+1} d/du_i`` for ``None``.

    Every derivation here is one rule applied per slot, and differs only
    in the image of each generator: ``d/dgen`` sends ``gen`` to 1 and the
    others to 0; ``D`` sends ``x`` to 1, ``u_i`` to ``u_{i+1}`` and ``t``
    to 0.  The power rule replaces one factor of a generator power by its
    image, and the chain rule turns each exponential component
    ``coeff * cmono * gen`` (the exponent is linear) into ``coeff * cmono``
    times the image of ``gen``.  Returns ``(terms, m)``: the derivative is
    ``terms / m``, with ``m`` the lcm of the denominators of the rates met.
    """
    total = gen is None
    out = {}
    get = out.get
    m = 1
    for key, c0 in a.items():
        c = c0 * m
        n = len(key)
        for idx, (slot, val) in enumerate(key):
            kind, g = slot[0], slot[1]
            if total:
                if kind == 1 or g == -2:  # constants and t: D is 0
                    continue
            elif g != gen:  # a constant's name is no generator code
                continue
            if kind == 0:
                head = key[:idx] if val == 1 else key[:idx] + ((slot, val - 1),)
                if not total or g == -1:
                    nk = head + key[idx + 1:]
                else:
                    # (0, g + 1) sorts directly after (0, g)
                    nxt = idx + 1
                    up = (0, g + 1)
                    if nxt < n and key[nxt][0] == up:
                        nk = head + ((up, key[nxt][1] + 1),) + key[nxt + 1:]
                    else:
                        nk = head + ((up, 1),) + key[nxt:]
                nc = c * val
            else:
                factor = slot[2]
                if total and g >= 0:
                    factor = (((0, g + 1), 1),) + factor
                nk = mul_key(key, factor)
                if type(val) is int:
                    nc = c * val
                else:
                    q = val.denominator
                    if m % q:
                        r = rescale(out, m, q)
                        c *= r
                        m *= r
                    nc = c // q * val.numerator
            v = get(nk)
            if v is None:
                out[nk] = nc
            else:
                v = v + nc
                if v:
                    out[nk] = v
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
