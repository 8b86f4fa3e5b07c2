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
  ``cmono`` a sorted tuple of ``(name, power)``.  ``coeff`` is an exact
  rational, an int when integral.

Multiplying two terms adds the values of matching slots, which makes every
kernel below a merge or a merge-of-products.  Zero values are never stored.
A derivative multiplies a coefficient by a slot value, which for a rational
exponential rate brings in its denominator: ``diff_terms`` and
``total_d_terms`` scale their output by the lcm of the rate denominators
they meet and return that scale beside it, so their products stay integer.
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
    """Product of a term map with one term ``coeff * key``.

    Unused by evosym itself: the benchmark's tracer (perfbench/tracer.py)
    patches this name, so it stays until the tracer reads statistics the
    library collects."""
    if not coeff:
        return {}
    if not key:
        return {k: c * coeff for k, c in terms.items()}
    out = {}
    for k, c in terms.items():
        out[mul_key(k, key)] = c * coeff
    return out


def mul_terms(a, b):
    """Full product of two term maps."""
    out = {}
    addmul_into(out, a, b, 1)
    return out


def diff_terms(a, gen):
    """Formal partial derivative of a term map with respect to generator ``gen``.

    Handles both the power rule on monomial slots and the chain rule on the
    exponential-argument slots (the exponent is linear, so each component
    contributes its coefficient times its constant monomial).  Returns
    ``(terms, m)``: the derivative is ``terms / m``, with ``m`` the lcm of
    the denominators of the rates met.
    """
    out = {}
    get = out.get
    m = 1
    for key, c0 in a.items():
        c = c0 * m
        for idx, (slot, val) in enumerate(key):
            kind = slot[0]
            if kind == 0:
                if slot[1] != gen:
                    continue
                if val == 1:
                    nk = key[:idx] + key[idx + 1:]
                else:
                    nk = key[:idx] + ((slot, val - 1),) + key[idx + 1:]
                nc = c * val
            elif kind == 2:
                if slot[1] != gen:
                    continue
                cmono = slot[2]
                if cmono:
                    nk = mul_key(key, tuple(((1, nm), e) for nm, e in cmono))
                else:
                    nk = key
                if type(val) is int:
                    nc = c * val
                else:
                    q = val.denominator
                    if m % q:
                        r = rescale(out, m, q)
                        c *= r
                        m *= r
                    nc = c // q * val.numerator
            else:
                continue
            v = get(nk)
            if v is None:
                out[nk] = nc
            else:
                v = v + nc
                if v:
                    out[nk] = v
                else:
                    del out[nk]
            get = out.get
    return out, m


def total_d_terms(a):
    """Total x-derivative ``D = d/dx + sum u_{i+1} d/du_i`` of a term map.

    One pass over each key: the power rule on ``x``; the power rule on
    ``u_i`` with the removed factor replaced by ``u_{i+1}``; the chain rule
    on each exponential component ``coeff * cmono * gen``, which contributes
    ``coeff * cmono * D(gen)`` (``D(x) = 1``, ``D(u_i) = u_{i+1}``,
    ``D(t) = 0``).  Returns ``(terms, m)`` as ``diff_terms`` does.
    """
    out = {}
    get = out.get
    m = 1
    for key, c0 in a.items():
        c = c0 * m
        n = len(key)
        for idx, (slot, val) in enumerate(key):
            kind, gen = slot[0], slot[1]
            if kind == 1 or gen == -2:  # constants and t: D is 0
                continue
            if kind == 0:
                head = key[:idx] if val == 1 else key[:idx] + ((slot, val - 1),)
                if gen == -1:
                    nk = head + key[idx + 1:]
                else:
                    # (0, gen + 1) sorts directly after (0, gen)
                    nxt = idx + 1
                    up = (0, gen + 1)
                    if nxt < n and key[nxt][0] == up:
                        nk = head + ((up, key[nxt][1] + 1),) + key[nxt + 1:]
                    else:
                        nk = head + ((up, 1),) + key[nxt:]
                nc = c * val
            else:
                factor = tuple(((1, nm), e) for nm, e in slot[2])
                if gen >= 0:
                    factor = (((0, gen + 1), 1),) + factor
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
