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
 * Products come from a table: row ``idx[i, k]`` holds all ``ch``
 * FP16-rounded products of activation (i, k), the ``ch`` lanes PacQ's
 * parallel multiplier produces for one activation.  ``batched`` passes
 * the whole-input table and the activations' raw FP16 patterns as the
 * indices.  Each row tile gathers its own products from the table
 * into [k][channels] vectors, so one selected product is one load; no
 * gathered [k, m, ch] array exists.
 *
 * Vectorization runs only across activation rows, which are independent
 * lanes: one GCC vector of MT doubles per tile (a plain double for
 * MT = 1), and NB output columns are register-blocked to hide the add
 * latency.  Rows go in full 8-row tiles; r leftover rows then run as
 * one tile: the exact 1- or 2-row tile for r = 1 or 2, a padded 4-row
 * tile for r = 3 or 4 and a padded 8-row tile for r = 5 to 7, so every
 * code is walked at most once more than the full tiles need.  Padding
 * lanes copy their products from a static row of 0.0, never from the
 * table (the kernel assumes no table row holds zeros); their sum(A) is
 * 0.0, their outputs are never stored, and no operation mixes lanes, so
 * every stored output is bit-identical to an exact-width tile's.
 */
#include <stdint.h>
#include <stdlib.h>

#define NB 4

/* What a padding lane's products are copied from: 0.0 in every channel
 * (at most 16), and never a row of the product table. */
static const double zero_row[16];

typedef double v8 __attribute__((vector_size(64)));
typedef double v4 __attribute__((vector_size(32)));
typedef double v2 __attribute__((vector_size(16)));

struct call {
    const uint8_t *codes;   /* [n, k] each weight's channel */
    const double *scale;    /* [k / group_k, n] */
    const double *adjust;   /* [k / group_k, n] */
    double offset;
    int64_t k, n, ch, group_k;
    const double *table;    /* [rows, ch] FP16-rounded products */
    const uint16_t *idx;    /* [m, k] each activation's table row */
    const double *a;        /* [m, k] FP16 activations */
    double *out;            /* [m, n] */
    void *buf;              /* one tile's [k, ch] product vectors */
    void *sa;               /* one tile's [k / group_k] sum(A) vectors */
};

/* One tile of MT lanes over rows i0 .. i0 + rows - 1 (rows <= MT; the
 * other lanes are padding), its lanes of type V.  Kept out of line:
 * inlining every tile into pacq_contract measured 10-25% slower. */
#define DEFINE_TILE(MT, V)                                                     \
    static __attribute__((noinline)) void                                      \
    tile_##MT(const struct call *c, int64_t i0, int rows)                      \
    {                                                                          \
        const int64_t k = c->k, n = c->n, ch = c->ch, group_k = c->group_k;    \
        V *buf = c->buf, *sa = c->sa;                                          \
        for (int64_t kk = 0; kk < k; kk++) {                                   \
            V *dst = buf + kk * ch;                                            \
            for (int t = 0; t < MT; t++) {                                     \
                const double *src =                                            \
                    t < rows ? c->table + c->idx[(i0 + t) * k + kk] * ch       \
                             : zero_row;                                       \
                for (int64_t q = 0; q < ch; q++)                               \
                    ((double *)&dst[q])[t] = src[q];                           \
            }                                                                  \
        }                                                                      \
        for (int64_t gi = 0; gi < k / group_k; gi++)                           \
            for (int t = 0; t < MT; t++) {                                     \
                double s = 0.0;                                                \
                if (t < rows)                                                  \
                    for (int64_t kk = gi * group_k; kk < (gi + 1) * group_k;   \
                         kk++)                                                 \
                        s += c->a[(i0 + t) * k + kk];                          \
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
                for (int t = 0; t < rows; t++)                                 \
                    c->out[(i0 + t) * n + j0 + b] = ((double *)&out[b])[t];    \
        }                                                                      \
    }

DEFINE_TILE(8, v8)
DEFINE_TILE(4, v4)
DEFINE_TILE(2, v2)
DEFINE_TILE(1, double)

/* out = the contraction of the plan's codes, scale and adjust with the
 * products table[idx] of activations a (see struct call for the
 * layouts).  The plan's operands come first, so a caller can bind them
 * once.  Returns 0, or -1 when the tile buffers cannot be allocated. */
int pacq_contract(const uint8_t *codes, const double *scale,
                  const double *adjust, double offset, int64_t k, int64_t n,
                  int64_t ch, int64_t group_k, const double *table,
                  const uint16_t *idx, const double *a, int64_t m, double *out)
{
    struct call c = {codes, scale, adjust, offset, k, n, ch, group_k,
                     table, idx, a, out, NULL, NULL};
    c.buf = aligned_alloc(64, sizeof(v8) * k * ch);
    c.sa = aligned_alloc(64, sizeof(v8) * (k / group_k));
    if (c.buf == NULL || c.sa == NULL) {
        free(c.buf);
        free(c.sa);
        return -1;
    }
    int64_t i0 = 0;
    for (; i0 + 8 <= m; i0 += 8)
        tile_8(&c, i0, 8);
    const int r = (int)(m - i0);
    if (r == 1)
        tile_1(&c, i0, 1);
    else if (r == 2)
        tile_2(&c, i0, 2);
    else if (r > 2 && r <= 4)
        tile_4(&c, i0, r);
    else if (r > 4)
        tile_8(&c, i0, r);
    free(c.buf);
    free(c.sa);
    return 0;
}
