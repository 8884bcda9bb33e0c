"""Synthetic-LM substrate for the Table II perplexity experiment.

* :mod:`repro.llm.corpus` — Zipf-Markov synthetic language + sampler.
* :mod:`repro.llm.bigram` — bigram LM expressed as a GEMM.
* :mod:`repro.llm.perplexity` — NLL/perplexity through quantized GEMMs.
"""

from repro.llm.bigram import BigramLm, fit_bigram_lm, make_bigram_lm
from repro.llm.corpus import (
    SyntheticLanguage,
    make_language,
    sample_tokens,
    stationary_distribution,
)
from repro.llm.perplexity import (
    PerplexityRow,
    evaluate_perplexity,
    perplexity_from_logits,
    table2_rows,
)
from repro.llm.transformer import (
    Decoder,
    DecoderWeights,
    TransformerConfig,
    gemm_shapes,
    init_weights,
)

__all__ = [
    "BigramLm",
    "Decoder",
    "DecoderWeights",
    "PerplexityRow",
    "SyntheticLanguage",
    "TransformerConfig",
    "evaluate_perplexity",
    "gemm_shapes",
    "init_weights",
    "fit_bigram_lm",
    "make_bigram_lm",
    "make_language",
    "perplexity_from_logits",
    "sample_tokens",
    "stationary_distribution",
    "table2_rows",
]
