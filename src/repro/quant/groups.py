"""Quantization group geometry (paper Table II).

Weight-only PTQ assigns one scale (and optionally one zero point) per
*group* of weight elements.  Conventional frameworks form groups along
the input-feature dimension only — ``g128`` means 128 consecutive ``k``
elements share a scale.  The paper's PacQ-friendly variant spans groups
across both dimensions: ``g[32, 4]`` keeps the same 128-element group
*size* but shapes it as 32 elements along ``k`` times 4 along ``n``,
which lets the general core fetch one scale per packed-``n`` word
(Fig. 6, step 3).

Weight matrices here follow the paper's convention: ``B`` has shape
``[k, n]`` (input features x output features).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuantizationError


@dataclass(frozen=True)
class GroupSpec:
    """Shape of one quantization group over a ``[k, n]`` weight matrix.

    Attributes:
        k: group extent along the input-feature dimension.
        n: group extent along the output-feature dimension.

    ``GroupSpec(128, 1)`` is the paper's ``g128``;
    ``GroupSpec(32, 4)`` is ``g[32, 4]``.
    """

    k: int
    n: int = 1

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise QuantizationError(f"group extents must be >= 1, got {self}")

    @property
    def size(self) -> int:
        """Number of weight elements sharing one scale."""
        return self.k * self.n

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``g128`` or ``g[32,4]``."""
        if self.n == 1:
            return f"g{self.k}"
        return f"g[{self.k},{self.n}]"

    def validate_for(self, k_dim: int, n_dim: int) -> None:
        """Check the spec tiles a ``[k_dim, n_dim]`` matrix exactly."""
        if k_dim % self.k or n_dim % self.n:
            raise QuantizationError(
                f"{self.label} does not tile a [{k_dim}, {n_dim}] matrix"
            )

    def grid_shape(self, k_dim: int, n_dim: int) -> tuple[int, int]:
        """Number of groups along each dimension for a ``[k, n]`` matrix."""
        self.validate_for(k_dim, n_dim)
        return k_dim // self.k, n_dim // self.n

    def scale_fetches_per_packed_word(self, pack_n: int) -> int:
        """Scales the general core must fetch per ``n``-packed word.

        A packed word spans ``pack_n`` consecutive outputs at one
        ``k``.  With ``k``-only groups every output has its own scale
        (``pack_n`` fetches); spanning the group across ``n >= pack_n``
        outputs collapses this to one fetch — the efficiency the
        paper's ``g[32, 4]`` modification targets.
        """
        if pack_n < 1:
            raise QuantizationError("pack_n must be >= 1")
        if self.n >= pack_n:
            return 1
        if pack_n % self.n:
            raise QuantizationError(
                f"packed word of {pack_n} outputs straddles {self.label} groups"
            )
        return pack_n // self.n


#: Group geometries evaluated in Table II of the paper.
G128 = GroupSpec(128, 1)
G32_4 = GroupSpec(32, 4)
G256 = GroupSpec(256, 1)
G64_4 = GroupSpec(64, 4)
TABLE2_SPECS = (G128, G32_4, G256, G64_4)


def spec_from_label(label: str) -> GroupSpec:
    """Parse a paper-style label (``g128`` / ``g[32,4]``) to a spec."""
    text = label.strip().lower()
    if not text.startswith("g"):
        raise QuantizationError(f"not a group label: {label!r}")
    body = text[1:]
    if body.startswith("[") and body.endswith("]"):
        parts = body[1:-1].split(",")
        if len(parts) != 2:
            raise QuantizationError(f"malformed group label: {label!r}")
        return GroupSpec(int(parts[0]), int(parts[1]))
    return GroupSpec(int(body), 1)
