"""Session benchmark: KV-cached decoding vs repeated full re-forwards.

The acceptance claim of the model layer:
:meth:`repro.model.InferenceSession.generate` on a quantized decoder is
**>= 5x faster per generated token** than the naive serving loop that
re-runs :meth:`~repro.llm.transformer.Decoder.forward` over the whole
sequence for every new token, at prompt length >= 256 — while the
incremental logits stay **bit-identical** to the full forward pass and
a checkpoint save -> load round trip reproduces identical generation.

Both properties are asserted here (the report fails loudly if either
regresses), so this file is the one-stop measurement for the claim.

Run standalone (``--quick`` shrinks the decode count for CI; ``--json``
emits a machine-readable record)::

    PYTHONPATH=src python benchmarks/bench_session.py [--quick] [--json OUT]
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from _common import base_record, build_quantized, make_parser, write_record
from repro.core.report import render_table
from repro.llm.transformer import TransformerConfig
from repro.model import InferenceSession, save_model

#: The serving workload: a ~6M-parameter decoder, prompt >= 256 tokens.
CONFIG = TransformerConfig(
    vocab=512, d_model=256, n_heads=8, n_layers=4, d_ffn=512, max_seq=320
)
PROMPT_LEN = 256
POLICY = "layer*.w_gate=int2@g[32,4];layer*.w_up=int2@g[32,4];*=int4@g[32,4]"

#: Acceptance floor: per-token speedup of the session over re-forwards.
MIN_SPEEDUP = 5.0

#: JSON schema tag of the --json record.
JSON_SCHEMA = "bench_session/v1"


def _build():
    weights, qmodel = build_quantized(CONFIG, POLICY)
    session = InferenceSession(qmodel, backend="fast")
    return weights, qmodel, session


def _assert_bit_identity(session: InferenceSession, prompt: np.ndarray) -> None:
    steps = 4
    # trimmed: the full forward is slow
    full = session.decoder.forward(prompt[: PROMPT_LEN // 4])
    cut = PROMPT_LEN // 4 - steps
    pre = session.prefill(prompt[:cut])
    assert np.array_equal(pre, full[:cut]), "prefill != forward"
    for i, token in enumerate(prompt[cut : cut + steps]):
        step = session.decode_step(int(token))
        assert np.array_equal(step, full[cut + i]), "decode_step != forward"


def _assert_roundtrip(session, qmodel, prompt, tmp_dir) -> None:
    save_model(tmp_dir, qmodel)
    loaded = InferenceSession.from_checkpoint(tmp_dir, backend="fast")
    a = session.generate(prompt[:8], 8, top_k=4, seed=1).tokens
    b = loaded.generate(prompt[:8], 8, top_k=4, seed=1).tokens
    assert np.array_equal(a, b), "checkpoint round trip changed generation"


def main() -> None:
    args = make_parser(__doc__).parse_args()

    baseline_tokens = 2 if args.quick else 4
    session_tokens = 16 if args.quick else 48

    rng = np.random.default_rng(7)
    prompt = rng.integers(0, CONFIG.vocab, size=PROMPT_LEN)
    weights, qmodel, session = _build()
    decoder = session.decoder

    print(f"decoder: {CONFIG.n_layers} layers, d_model={CONFIG.d_model}, "
          f"{weights.num_parameters() / 1e6:.2f}M params; policy {POLICY}")
    print(f"prompt: {PROMPT_LEN} tokens; backend: fast\n")

    _assert_bit_identity(session, prompt)

    # Naive serving loop: one full re-forward per generated token.
    seq = list(prompt)
    start = time.perf_counter()
    for _ in range(baseline_tokens):
        logits = decoder.forward(np.asarray(seq))
        seq.append(int(np.argmax(logits[-1])))
    naive_per_token = (time.perf_counter() - start) / baseline_tokens

    # KV-cached session: prefill once, O(1) GEMM work per token.
    start = time.perf_counter()
    logits = session.prefill(prompt)[-1]
    prefill_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(session_tokens):
        logits = session.decode_step(int(np.argmax(logits)))
    cached_per_token = (time.perf_counter() - start) / session_tokens

    speedup = naive_per_token / cached_per_token
    rows = [
        ["full re-forward / token", f"{naive_per_token * 1e3:.1f}",
         f"{1.0 / naive_per_token:.1f}", "1.00x"],
        ["prefill (once)", f"{prefill_s * 1e3:.1f}", "-", "-"],
        ["decode_step / token", f"{cached_per_token * 1e3:.2f}",
         f"{1.0 / cached_per_token:.1f}", f"{speedup:.2f}x"],
    ]
    print(render_table(
        f"generation at prompt={PROMPT_LEN} (quantized, backend=fast)",
        ["path", "ms/token", "tok/s", "speedup"], rows))

    with tempfile.TemporaryDirectory() as tmp:
        _assert_roundtrip(session, qmodel, prompt, tmp)
    print("\nbit-identity and checkpoint round-trip: OK")
    print(f"headline: KV-cached decoding {speedup:.1f}x faster per token "
          f"(floor {MIN_SPEEDUP:.0f}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"per-token speedup {speedup:.2f}x below the {MIN_SPEEDUP:.0f}x floor"
    )

    if args.json:
        record = base_record(JSON_SCHEMA, args.quick)
        record.update(
            config={
                "d_model": CONFIG.d_model,
                "n_layers": CONFIG.n_layers,
                "vocab": CONFIG.vocab,
                "prompt_len": PROMPT_LEN,
                "policy": POLICY,
            },
            naive_s_per_token=naive_per_token,
            cached_s_per_token=cached_per_token,
            prefill_s=prefill_s,
            speedup=speedup,
        )
        write_record(args.json, record)


if __name__ == "__main__":
    main()
