/* Compiled kernel backend, written against the CPython C API.

   Twin of pure.py for the five kernels the library reads as backend.<name>
   (primality, the sieve, Brent rho, the first prime in a progression and
   the harvest's least j), the backend contract; see that module for what
   each one returns.  Every integer argument is an unsigned 64-bit word: a
   Python int outside [0, 2**64) raises OverflowError.  Modular products
   are taken in 128 bits.  Miller-Rabin reads its base sets from
   pure._MR_TIERS when the module loads, so both twins run from one table.

   Build in place with `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

static inline u64 cm_mulmod(u64 a, u64 b, u64 m)
{
    return (u64)((u128)a * b % m);
}

static inline u64 cm_powmod(u64 b, u64 e, u64 m)
{
    u64 r = 1 % m;
    b %= m;
    while (e) {
        if (e & 1)
            r = cm_mulmod(r, b, m);
        b = cm_mulmod(b, b, m);
        e >>= 1;
    }
    return r;
}

static inline u64 cm_gcd(u64 a, u64 b)
{
    while (b) {
        u64 t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* ---- argument conversion ---------------------------------------------- */

static int as_u64(PyObject *o, u64 *out)
{
    u64 v = PyLong_AsUnsignedLongLong(o);
    if (v == (u64)-1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* Checks that a kernel got `want` arguments and converts each of them. */
static int word_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
                     Py_ssize_t want, u64 *out)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < want; i++)
        if (as_u64(args[i], &out[i]) < 0)
            return -1;
    return 0;
}

/* ---- Miller-Rabin ------------------------------------------------------- */

/* The primes up to 211: pure.py screens n with one gcd against their product. */
static const unsigned char SMALL_PRIMES[] = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
    83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
    173, 179, 181, 191, 193, 197, 199, 211,
};

/* pure._MR_TIERS: the set of tier t is exact below tier_bound[t]; the last
   set covers the rest of the 64-bit range. */
#define MAX_TIERS 8
#define MAX_BASES 8
static int n_tiers;
static u64 tier_bound[MAX_TIERS];
static int tier_size[MAX_TIERS];
static u64 tier_bases[MAX_TIERS][MAX_BASES];

static int load_tiers(void)
{
    PyObject *pure = PyImport_ImportModule("carmik._kernels.pure");
    PyObject *tiers = pure ? PyObject_GetAttrString(pure, "_MR_TIERS") : NULL;
    PyObject *seq = tiers ? PySequence_Fast(tiers, "_MR_TIERS must be a sequence") : NULL;
    int ok = seq != NULL;
    Py_XDECREF(pure);
    Py_XDECREF(tiers);
    if (ok && PySequence_Fast_GET_SIZE(seq) > MAX_TIERS) {
        PyErr_SetString(PyExc_ValueError, "_MR_TIERS holds more tiers than the C table");
        ok = 0;
    }
    n_tiers = ok ? (int)PySequence_Fast_GET_SIZE(seq) : 0;
    for (int t = 0; ok && t < n_tiers; t++) {
        PyObject *bound, *bases, *items = NULL;
        ok = PyArg_ParseTuple(PySequence_Fast_GET_ITEM(seq, t), "OO", &bound, &bases)
             && (t == n_tiers - 1 || as_u64(bound, &tier_bound[t]) == 0)
             && (items = PySequence_Fast(bases, "bases must be a sequence")) != NULL;
        if (ok && PySequence_Fast_GET_SIZE(items) > MAX_BASES) {
            PyErr_SetString(PyExc_ValueError, "a base set of _MR_TIERS is longer than the C table");
            ok = 0;
        }
        tier_size[t] = ok ? (int)PySequence_Fast_GET_SIZE(items) : 0;
        for (int i = 0; ok && i < tier_size[t]; i++)
            ok = as_u64(PySequence_Fast_GET_ITEM(items, i), &tier_bases[t][i]) == 0;
        Py_XDECREF(items);
    }
    Py_XDECREF(seq);
    return ok ? 0 : -1;
}

static int is_prime(u64 n)
{
    if (n < 2)
        return 0;
    for (size_t i = 0; i < sizeof SMALL_PRIMES; i++)
        if (n % SMALL_PRIMES[i] == 0)
            return n == SMALL_PRIMES[i];
    if (n < 211 * 211)  /* no prime factor up to 211 */
        return 1;
    int t = 0;
    while (t < n_tiers - 1 && n >= tier_bound[t])
        t++;
    u64 d = n - 1;
    int s = __builtin_ctzll(d);
    d >>= s;
    for (int i = 0; i < tier_size[t]; i++) {
        /* A base is reduced mod n and skipped below 2, as in pure.py. */
        u64 a = tier_bases[t][i] % n;
        if (a < 2)
            continue;
        u64 x = cm_powmod(a, d, n);
        if (x == 1 || x == n - 1)
            continue;
        int r;
        for (r = 1; r < s; r++) {
            x = cm_mulmod(x, x, n);
            if (x == n - 1)
                break;
        }
        if (r == s)
            return 0;
    }
    return 1;
}

static PyObject *is_prime_u64(PyObject *self, PyObject *arg)
{
    u64 n;
    if (as_u64(arg, &n) < 0)
        return NULL;
    return PyBool_FromLong(is_prime(n));
}

/* ---- sieve -------------------------------------------------------------- */

static u64 isqrt_u64(u64 n)
{
    u64 r = (u64)sqrt((double)n);
    while (r > 0 && r > n / r)
        r--;
    while (r + 1 <= n / (r + 1))
        r++;
    return r;
}

static int list_append_u64(PyObject *list, u64 v)
{
    PyObject *item = PyLong_FromUnsignedLongLong(v);
    int rc = item == NULL ? -1 : PyList_Append(list, item);
    Py_XDECREF(item);
    return rc;
}

static PyObject *primes_in_range(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 w[2];
    if (word_args("primes_in_range", args, nargs, 2, w) < 0)
        return NULL;
    u64 lo = w[0] < 2 ? 2 : w[0], hi = w[1];
    if (hi < lo)
        return PyList_New(0);
    u64 root = isqrt_u64(hi), width = hi - lo + 1;
    unsigned char *base = malloc(root + 1), *seg = malloc(width);
    if (base == NULL || seg == NULL) {
        free(base);
        free(seg);
        return PyErr_NoMemory();
    }
    memset(base, 1, root + 1);
    memset(seg, 1, width);
    /* Odd primes strike their odd multiples only: no even entry is read,
       and 2 is listed by hand. */
    for (u64 p = 3; p * p <= root; p += 2)
        if (base[p])
            for (u64 m = p * p; m <= root; m += 2 * p)
                base[m] = 0;
    for (u64 p = 3; p <= root; p += 2) {
        if (!base[p])
            continue;
        /* Offset of the first odd multiple of p in [lo, hi] that is at
           least p*p. */
        u64 r = lo % p, off = p * p >= lo ? p * p - lo : r ? p - r : 0;
        if (((lo ^ off) & 1) == 0)
            off += p;
        for (u64 i = off; i < width; i += 2 * p)
            seg[i] = 0;
    }
    PyObject *out = PyList_New(0);
    if (out != NULL && lo == 2 && list_append_u64(out, 2) < 0)
        Py_CLEAR(out);
    for (u64 i = (lo & 1) ^ 1; out != NULL && i < width; i += 2)
        if (seg[i] && list_append_u64(out, lo + i) < 0)
            Py_CLEAR(out);
    free(base);
    free(seg);
    return out;
}

/* ---- arithmetic progressions -------------------------------------------- */

static PyObject *first_prime_in_ap(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 w[3];
    if (word_args("first_prime_in_ap", args, nargs, 3, w) < 0)
        return NULL;
    u64 l = w[0], t = w[1], cap = w[2], steps = 0;
    while (t <= cap) {
        steps++;
        if (is_prime(t))
            return Py_BuildValue("KK", (unsigned long long)t, (unsigned long long)steps);
        if (cap - t < l)  /* t + l would pass the cap, or 2**64 */
            break;
        t += l;
    }
    return Py_BuildValue("iK", 0, (unsigned long long)steps);
}

/* The least j in [start, cap] with gcd(j, g) == 1 and g*j + 1 prime, or 0.
   The second argument, the primes pure.py proves each q from, is not
   read: Miller-Rabin needs no factored part of q - 1. */
static PyObject *harvest_j(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 g, start, cap;
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "harvest_j() takes 4 arguments (%zd given)", nargs);
        return NULL;
    }
    if (as_u64(args[0], &g) < 0 || as_u64(args[2], &start) < 0 || as_u64(args[3], &cap) < 0)
        return NULL;
    if ((u128)g * cap + 1 > UINT64_MAX) {
        PyErr_SetString(PyExc_OverflowError, "g*cap + 1 >= 2**64");
        return NULL;
    }
    for (u64 j = start; j <= cap; j++) {
        if (cm_gcd(j, g) == 1 && is_prime(g * j + 1))
            return PyLong_FromUnsignedLongLong(j);
        if (j == cap)  /* cap may be the last word */
            break;
    }
    return PyLong_FromLong(0);
}

/* ---- Brent rho ---------------------------------------------------------- */

static inline u64 rho_step(u64 y, u64 c, u64 n)
{
    return (u64)(((u128)y * y + c) % n);
}

/* One cycle search with offset c: a factor of n, or 0 if it closed on n. */
static u64 brent_round(u64 n, u64 c)
{
    const u64 m = 128;
    u64 y = 2, r = 1, q = 1, g = 1, x = y, ys = y;
    while (g == 1) {
        x = y;
        for (u64 i = 0; i < r; i++)
            y = rho_step(y, c, n);
        for (u64 k = 0; k < r && g == 1; k += m) {
            ys = y;
            u64 lim = m < r - k ? m : r - k;
            for (u64 j = 0; j < lim; j++) {
                y = rho_step(y, c, n);
                q = cm_mulmod(q, x > y ? x - y : y - x, n);
            }
            g = cm_gcd(q, n);
        }
        r *= 2;
    }
    if (g == n) {
        g = 1;
        y = ys;
        while (g == 1) {
            y = rho_step(y, c, n);
            g = cm_gcd(x > y ? x - y : y - x, n);
        }
    }
    return g == n ? 0 : g;
}

static PyObject *brent_factor(PyObject *self, PyObject *arg)
{
    u64 n, f;
    if (as_u64(arg, &n) < 0)
        return NULL;
    if (n % 2 == 0)
        return PyLong_FromLong(2);
    for (u64 c = 1;; c++) {
        f = brent_round(n, c);
        if (f != 0 && f != n)
            return PyLong_FromUnsignedLongLong(f);
    }
}

/* ---- module ------------------------------------------------------------- */

static PyMethodDef native_methods[] = {
    {"is_prime_u64", is_prime_u64, METH_O,
     "Exact primality for 0 <= n < 2**64."},
    {"primes_in_range", (PyCFunction)(void (*)(void))primes_in_range, METH_FASTCALL,
     "Ascending list of primes p with lo <= p <= hi (segmented sieve)."},
    {"first_prime_in_ap", (PyCFunction)(void (*)(void))first_prime_in_ap, METH_FASTCALL,
     "(p, steps): least prime p == residue (mod modulus) with p <= cap, or (0, steps)."},
    {"harvest_j", (PyCFunction)(void (*)(void))harvest_j, METH_FASTCALL,
     "Least j in [start, cap] with gcd(j, g) == 1 and g*j + 1 prime, or 0."},
    {"brent_factor", brent_factor, METH_O,
     "A nontrivial factor of odd composite n; the same path as the pure twin."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "carmik._kernels._native",
    .m_doc = "Compiled twin of carmik._kernels.pure for the backend contract.",
    .m_size = -1,
    .m_methods = native_methods,
};

PyMODINIT_FUNC PyInit__native(void)
{
    if (load_tiers() < 0)
        return NULL;
    PyObject *module = PyModule_Create(&native_module);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND_NAME", "native") < 0)
        Py_CLEAR(module);
    return module;
}
