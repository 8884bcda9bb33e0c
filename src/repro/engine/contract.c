/* The engine's one contraction: group-sum FP16 products selected by
 * 1-byte channel codes, then apply Eq. (1), adjust and scale.
 *
 * Bit-for-bit equal to the scalar oracle (``bitexact-scalar``): for
 * each output (i, j) and k-group gi the selected products are added in
 * ascending k starting from 0.0, and so is sum(A); then
 * ``((acc - offset * sA) + adjust * sA) * scale`` is added to an output
 * that starts at 0.0, over gi ascending.  Every operation rounds as the
 * oracle's does, so the kernel must be built with -ffp-contract=off (no
 * FMA) and never with -ffast-math or -Ofast.
 *
 * Vectorization runs only across activation rows, which are independent
 * lanes: rows go in tiles of 8/4/2/1, one GCC vector of MT doubles per
 * tile (a plain double for MT = 1).  Each tile's products are repacked
 * to [k][channels] vectors, so one selected product is one load, and
 * NB output columns are register-blocked to hide the add latency.
 */
#include <stdint.h>
#include <stdlib.h>

#define NB 4

typedef double v8 __attribute__((vector_size(64)));
typedef double v4 __attribute__((vector_size(32)));
typedef double v2 __attribute__((vector_size(16)));

struct call {
    const double *products; /* [k, m, ch] FP16-rounded products */
    const double *a;        /* [m, k] FP16 activations */
    const uint8_t *codes;   /* [n, k] each weight's channel */
    const double *scale;    /* [k / group_k, n] */
    const double *adjust;   /* [k / group_k, n] */
    double offset;
    int64_t m, k, n, ch, group_k;
    double *out;            /* [m, n] */
    void *buf;              /* one tile's [k, ch] product vectors */
    void *sa;               /* one tile's [k / group_k] sum(A) vectors */
};

/* One tile of MT rows starting at row i0, its lanes of type V. */
#define DEFINE_TILE(MT, V)                                                     \
    static void tile_##MT(const struct call *c, int64_t i0)                    \
    {                                                                          \
        const int64_t k = c->k, n = c->n, ch = c->ch, group_k = c->group_k;    \
        V *buf = c->buf, *sa = c->sa;                                          \
        for (int64_t kk = 0; kk < k; kk++)                                     \
            for (int64_t q = 0; q < ch; q++)                                   \
                for (int t = 0; t < MT; t++)                                   \
                    ((double *)&buf[kk * ch + q])[t] =                         \
                        c->products[(kk * c->m + i0 + t) * ch + q];            \
        for (int64_t gi = 0; gi < k / group_k; gi++)                           \
            for (int t = 0; t < MT; t++) {                                     \
                double s = 0.0;                                                \
                for (int64_t kk = gi * group_k; kk < (gi + 1) * group_k; kk++) \
                    s += c->a[(i0 + t) * k + kk];                              \
                ((double *)&sa[gi])[t] = s;                                    \
            }                                                                  \
        for (int64_t j0 = 0; j0 < n; j0 += NB) {                               \
            const int nb = n - j0 < NB ? (int)(n - j0) : NB;                   \
            V out[NB];                                                         \
            for (int b = 0; b < nb; b++)                                       \
                out[b] = (V){0.0};                                             \
            for (int64_t gi = 0; gi < k / group_k; gi++) {                     \
                const int64_t k0 = gi * group_k, k1 = k0 + group_k;            \
                const uint8_t *code = c->codes + j0 * k;                       \
                V acc[NB];                                                     \
                for (int b = 0; b < nb; b++)                                   \
                    acc[b] = (V){0.0};                                         \
                if (nb == NB) {                                                \
                    const uint8_t *c0 = code, *c1 = c0 + k, *c2 = c1 + k,      \
                                  *c3 = c2 + k;                                \
                    for (int64_t kk = k0; kk < k1; kk++) {                     \
                        const V *row = buf + kk * ch;                          \
                        acc[0] += row[c0[kk]];                                 \
                        acc[1] += row[c1[kk]];                                 \
                        acc[2] += row[c2[kk]];                                 \
                        acc[3] += row[c3[kk]];                                 \
                    }                                                          \
                } else {                                                       \
                    for (int b = 0; b < nb; b++)                               \
                        for (int64_t kk = k0; kk < k1; kk++)                   \
                            acc[b] += buf[kk * ch + code[b * k + kk]];         \
                }                                                              \
                for (int b = 0; b < nb; b++) {                                 \
                    const double scale = c->scale[gi * n + j0 + b];            \
                    const double adjust = c->adjust[gi * n + j0 + b];          \
                    out[b] += ((acc[b] - c->offset * sa[gi]) + adjust * sa[gi])\
                              * scale;                                         \
                }                                                              \
            }                                                                  \
            for (int b = 0; b < nb; b++)                                       \
                for (int t = 0; t < MT; t++)                                   \
                    c->out[(i0 + t) * n + j0 + b] = ((double *)&out[b])[t];    \
        }                                                                      \
    }

DEFINE_TILE(8, v8)
DEFINE_TILE(4, v4)
DEFINE_TILE(2, v2)
DEFINE_TILE(1, double)

/* out = the contraction of products, a, codes, scale and adjust (see
 * struct call for the layouts).  Returns 0, or -1 when the tile buffers
 * cannot be allocated. */
int pacq_contract(const double *products, const double *a,
                  const uint8_t *codes, const double *scale,
                  const double *adjust, double offset, int64_t m, int64_t k,
                  int64_t n, int64_t ch, int64_t group_k, double *out)
{
    struct call c = {products, a, codes, scale, adjust, offset, m, k, n, ch,
                     group_k, out, NULL, NULL};
    c.buf = aligned_alloc(64, sizeof(v8) * k * ch);
    c.sa = aligned_alloc(64, sizeof(v8) * (k / group_k));
    if (c.buf == NULL || c.sa == NULL) {
        free(c.buf);
        free(c.sa);
        return -1;
    }
    int64_t i0 = 0;
    for (; i0 + 8 <= m; i0 += 8)
        tile_8(&c, i0);
    if (i0 + 4 <= m) {
        tile_4(&c, i0);
        i0 += 4;
    }
    if (i0 + 2 <= m) {
        tile_2(&c, i0);
        i0 += 2;
    }
    if (i0 < m)
        tile_1(&c, i0);
    free(c.buf);
    free(c.sa);
    return 0;
}
