"""Model-level checkpoints: quantize once, load many times.

A checkpoint is a directory:

* ``manifest.json`` — format marker and version, the serialized
  :class:`~repro.model.policy.QuantPolicy`, the decoder config, one
  entry per quantized layer (file name, recipe, persisted
  quantization-error report) and the list of FP16-kept layers;
* ``layer-<name>.npz`` — one per quantized layer, written with
  :func:`repro.quant.io.save_quantized` (so single-matrix tooling can
  open them directly);
* ``awq_scales.npz`` — AWQ equalization scales for layers that carry
  them;
* ``weights.npz`` — the non-quantized parameters a serving session
  needs: embedding, norms, and the float64 masters of FP16-kept
  layers.  Masters of *quantized* layers are intentionally not
  persisted (that is the point of quantizing), and a loaded model holds
  none, as :func:`~repro.model.policy.quantize_model` keeps none: those
  layers execute through their plans.

A save → load round trip reproduces bit-identical generation: codes,
scales, zeros, embedding, norms and kept masters all round-trip
exactly through ``.npz``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any

import numpy as np

from repro.errors import QuantizationError
from repro.llm.transformer import (
    DecoderWeights,
    TransformerConfig,
    _layer_shapes,
)
from repro.model.policy import (
    LayerRule,
    QuantizedLayer,
    QuantizedModel,
    QuantPolicy,
)
from repro.quant.error import QuantErrorReport
from repro.quant.io import load_quantized, save_quantized

#: Format marker / version stored in every model manifest.
MANIFEST_KIND = "pacq-model"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.npz"
SCALES_NAME = "awq_scales.npz"


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "_.-" else "_" for c in name)


def _weights_arrays(model: QuantizedModel) -> dict[str, np.ndarray]:
    weights = model.weights
    assert weights is not None
    arrays: dict[str, np.ndarray] = {
        "embedding": weights.embedding,
        "final_norm": weights.final_norm,
    }
    for i, norm in enumerate(weights.norms):
        for key, value in norm.items():
            arrays[f"norm{i}.{key}"] = value
    for name in model.kept_fp16:
        layer, _, short = name.partition(".")
        arrays[f"master.{name}"] = weights.blocks[int(layer[len("layer"):])][short]
    return arrays


def save_model(path: str | pathlib.Path, model: QuantizedModel) -> pathlib.Path:
    """Write a :class:`QuantizedModel` checkpoint directory.

    Re-saving into an existing checkpoint directory first removes the
    previous save's files, so the directory never mixes layers from
    two quantization runs (the manifest and the ``.npz`` files on disk
    always describe the same model).
    """
    directory = pathlib.Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    stale = [
        directory / MANIFEST_NAME,
        directory / WEIGHTS_NAME,
        directory / SCALES_NAME,
    ]
    stale.extend(sorted(directory.glob("layer-*.npz")))
    for leftover in stale:
        leftover.unlink(missing_ok=True)

    layer_entries = []
    scales: dict[str, np.ndarray] = {}
    for name, layer in model.layers.items():
        fname = f"layer-{_slug(name)}.npz"
        save_quantized(directory / fname, layer.matrix)
        if layer.channel_scales is not None:
            scales[name] = layer.channel_scales
        layer_entries.append(
            {
                "name": name,
                "file": fname,
                "rule": layer.rule.to_dict(),
                "report": None
                if layer.report is None
                else {
                    "label": layer.report.label,
                    "bits": layer.report.bits,
                    "mse": layer.report.mse,
                    "sqnr_db": layer.report.sqnr_db,
                    "max_abs_err": layer.report.max_abs_err,
                },
            }
        )
    if scales:
        np.savez_compressed(directory / SCALES_NAME, **scales)
    if model.weights is not None:
        np.savez_compressed(directory / WEIGHTS_NAME, **_weights_arrays(model))

    manifest = {
        "kind": MANIFEST_KIND,
        "version": FORMAT_VERSION,
        "policy": model.policy.to_dict(),
        "config": None
        if model.config is None
        else dataclasses.asdict(model.config),
        "layers": layer_entries,
        "kept_fp16": list(model.kept_fp16),
        "has_weights": model.weights is not None,
        "has_scales": bool(scales),
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=1, sort_keys=True)
    )
    return directory


def _read_manifest(directory: pathlib.Path) -> dict[str, Any]:
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise QuantizationError(f"no {MANIFEST_NAME} in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise QuantizationError(f"corrupt manifest {manifest_path}: {exc}") from exc
    if manifest.get("kind") != MANIFEST_KIND:
        raise QuantizationError(
            f"{manifest_path} is not a {MANIFEST_KIND} checkpoint"
        )
    if "version" not in manifest:
        raise QuantizationError(f"{manifest_path} carries no format version")
    version = int(manifest["version"])
    if version != FORMAT_VERSION:
        raise QuantizationError(
            f"model checkpoint format version {version} is not supported by "
            f"this library (expected {FORMAT_VERSION})"
        )
    return manifest


def _rebuild_weights(
    directory: pathlib.Path,
    config: TransformerConfig,
    layers: dict[str, QuantizedLayer],
    kept: list[str],
) -> DecoderWeights:
    with np.load(directory / WEIGHTS_NAME, allow_pickle=False) as data:
        embedding = data["embedding"]
        final_norm = data["final_norm"]
        norms = []
        for i in range(config.n_layers):
            norms.append(
                {
                    "attn": data[f"norm{i}.attn"],
                    "ffn": data[f"norm{i}.ffn"],
                }
            )
        blocks: list[dict[str, np.ndarray]] = []
        for i in range(config.n_layers):
            block: dict[str, np.ndarray] = {}
            for short in _layer_shapes(config):
                name = f"layer{i}.{short}"
                if name in kept:
                    block[short] = data[f"master.{name}"]
                elif name not in layers:
                    raise QuantizationError(
                        f"manifest names neither a quantized layer nor a "
                        f"kept master for {name}"
                    )
            blocks.append(block)
    return DecoderWeights(embedding, blocks, final_norm, norms)


def load_model(path: str | pathlib.Path) -> QuantizedModel:
    """Read a checkpoint directory written by :func:`save_model`."""
    directory = pathlib.Path(path)
    manifest = _read_manifest(directory)

    scales: dict[str, np.ndarray] = {}
    if manifest.get("has_scales"):
        with np.load(directory / SCALES_NAME, allow_pickle=False) as data:
            scales = {name: data[name] for name in data.files}

    layers: dict[str, QuantizedLayer] = {}
    for entry in manifest["layers"]:
        name = str(entry["name"])
        report = entry.get("report")
        layers[name] = QuantizedLayer(
            name=name,
            matrix=load_quantized(directory / str(entry["file"])),
            rule=LayerRule.from_dict(entry["rule"]),
            report=None
            if report is None
            else QuantErrorReport(
                label=str(report["label"]),
                bits=int(report["bits"]),
                mse=float(report["mse"]),
                sqnr_db=float(report["sqnr_db"]),
                max_abs_err=float(report["max_abs_err"]),
            ),
            channel_scales=scales.get(name),
        )

    kept = [str(name) for name in manifest.get("kept_fp16", [])]
    config = (
        None
        if manifest.get("config") is None
        else TransformerConfig(**manifest["config"])
    )
    weights = None
    if manifest.get("has_weights"):
        if config is None:
            raise QuantizationError(
                "manifest has weights but no config to shape them"
            )
        weights = _rebuild_weights(directory, config, layers, kept)

    return QuantizedModel(
        layers=layers,
        policy=QuantPolicy.from_dict(manifest["policy"]),
        config=config,
        weights=weights,
        kept_fp16=tuple(kept),
    )
