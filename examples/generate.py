#!/usr/bin/env python3
"""End-to-end serving demo: policy -> checkpoint -> KV-cached generation.

The model layer (:mod:`repro.model`) in one script:

1. declare a mixed-precision quantization policy (INT2 FFN expansions,
   INT4 everywhere else) and apply it to a Llama-style toy decoder;
2. save the quantized model to a checkpoint directory and load it back
   (quantize once, serve many times);
3. run KV-cached generation — greedy and top-k — through an
   :class:`~repro.model.InferenceSession`, whose per-token logits are
   bit-identical to a full forward pass;
4. print the session's per-layer GEMM telemetry and price one layer's
   aggregate GEMM on the PacQ cost model.

Run: ``python examples/generate.py [--quick] [--backend reference]``
(``--quick`` shrinks the model and generation length for CI).
"""

import argparse
import tempfile

import numpy as np

from repro.core import evaluate, pacq, standard_dequant
from repro.core.report import render_table
from repro.engine import DEFAULT_BACKEND, backend_names
from repro.llm.transformer import TransformerConfig, init_weights
from repro.model import InferenceSession, parse_policy, quantize_model, save_model

POLICY = "layer*.w_gate=int2@g[32,4];layer*.w_up=int2@g[32,4];*=int4@g[32,4]"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=backend_names(),
                        default=DEFAULT_BACKEND,
                        help="engine backend for the quantized linears "
                        "(default: %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="small model / short generation (CI smoke)")
    args = parser.parse_args()

    if args.quick:
        config = TransformerConfig(
            vocab=64, d_model=64, n_heads=2, n_layers=2, d_ffn=128, max_seq=64
        )
        prompt_len, new_tokens = 8, 8
    else:
        config = TransformerConfig(
            vocab=512, d_model=256, n_heads=8, n_layers=4, d_ffn=512,
            max_seq=256,
        )
        prompt_len, new_tokens = 64, 32

    weights = init_weights(config, seed=0)
    policy = parse_policy(POLICY)
    qmodel = quantize_model(weights, policy, config=config)
    print(f"decoder: {config.n_layers} layers, d_model={config.d_model}, "
          f"{weights.num_parameters() / 1e6:.2f}M parameters")
    print(f"policy:  {policy.label}")
    print(render_table("per-layer quantization report",
                       ["layer", "recipe", "sqnr dB", "mse"],
                       qmodel.summary_rows()))

    prompt = np.random.default_rng(1).integers(0, config.vocab, size=prompt_len)
    with tempfile.TemporaryDirectory() as ckpt:
        save_model(ckpt, qmodel)
        session = InferenceSession.from_checkpoint(ckpt, backend=args.backend)
        print(f"\ncheckpoint round trip through {ckpt}: OK")

        greedy = session.generate(prompt, new_tokens)
        print(f"\ngreedy continuation ({new_tokens} tokens): "
              + " ".join(str(t) for t in greedy.new_tokens))
        sampled = session.generate(prompt, new_tokens, top_k=8, seed=7)
        print("top-8 continuation  (seed 7):  "
              + " ".join(str(t) for t in sampled.new_tokens))

        print()
        print(render_table(
            "session telemetry (per-layer GEMM activity)",
            ["site", "calls", "rows", "n", "k", "MACs",
             "wKiB moved", "aKiB moved"],
            session.telemetry.summary_rows(),
        ))

        # Price the busiest site's aggregate GEMM on PacQ vs the
        # standard dequantization flow.
        name, shape = max(
            session.telemetry.gemm_shapes(pad_to=16),
            key=lambda item: item[1].macs,
        )
        std = evaluate(standard_dequant(4), shape)
        ours = evaluate(pacq(4), shape)
        print(f"\npricing {name} aggregate {shape.name} on the cost model: "
              f"{std.cycles / ours.cycles:.2f}x faster, "
              f"{100 * (1 - ours.edp / std.edp):.1f}% EDP reduction vs "
              "standard dequantization")


if __name__ == "__main__":
    main()
