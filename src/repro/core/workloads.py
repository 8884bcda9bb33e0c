"""LLM GEMM workloads (paper Section V).

The paper evaluates weight-only-quantized LLM inference in the
multi-batch (compute-bound) regime; its headline EDP workload is
``m16n4096k4096`` — "a FFN layer in Llama2-7B with 16 batches".  This
module enumerates the GEMM shapes of the standard decoder layers so
sweeps can cover whole models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.simt.memoryhier import GemmShape


@dataclass(frozen=True)
class LlmSpec:
    """Decoder-layer dimensions of one LLM."""

    name: str
    hidden: int
    intermediate: int
    num_layers: int
    vocab: int

    def layer_gemms(self, batch: int) -> list[tuple[str, GemmShape]]:
        """GEMM shapes of one decoder layer at a given batch size.

        Shapes follow the paper's ``[m, k] x [k, n]`` convention with
        ``m`` the token-batch dimension.
        """
        if batch < 1:
            raise ConfigError("batch must be >= 1")
        h, f = self.hidden, self.intermediate
        return [
            ("qkv_proj", GemmShape(batch, 3 * h, h)),
            ("o_proj", GemmShape(batch, h, h)),
            ("ffn_gate", GemmShape(batch, f, h)),
            ("ffn_up", GemmShape(batch, f, h)),
            ("ffn_down", GemmShape(batch, h, f)),
        ]


#: Llama2-7B per its published configuration.
LLAMA2_7B = LlmSpec("Llama2-7B", hidden=4096, intermediate=11008, num_layers=32, vocab=32000)
#: Llama2-13B.
LLAMA2_13B = LlmSpec("Llama2-13B", hidden=5120, intermediate=13824, num_layers=40, vocab=32000)
#: OPT-6.7B (the OPT family uses 4x FFN expansion).
OPT_6_7B = LlmSpec("OPT-6.7B", hidden=4096, intermediate=16384, num_layers=32, vocab=50272)


def fig10_workload() -> GemmShape:
    """The paper's EDP workload: Llama2-7B FFN slice at batch 16.

    ``m16n4096k4096`` — the down-projection facet of the FFN with both
    GEMM dims at the hidden size.
    """
    return GemmShape(16, 4096, 4096)


def microbench_workload() -> GemmShape:
    """The warp-level workload of Figs. 7, 11 and 12 (m16n16k16)."""
    return GemmShape(16, 16, 16)


def batch_sweep(base: GemmShape, batches: list[int]) -> list[GemmShape]:
    """The same layer at several batch sizes (single-batch -> serving)."""
    return [GemmShape(b, base.n, base.k) for b in batches]
