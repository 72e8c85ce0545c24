"""Binary serialization of atlas datasets — and the delta broadcast codec.

Each dataset gets its own length-prefixed section so the Table 2 benchmark
can report per-dataset compressed sizes exactly the way the paper does.
The format is row-oriented ``struct`` packing with sorted keys, which is
what makes DEFLATE effective (neighboring rows share most of their bytes).

:func:`encode_delta` / :func:`decode_delta` are the **shard broadcast
codec**: the wire format the sharded prediction service
(:mod:`repro.serve`) uses to fan one day's
:class:`~repro.atlas.delta.AtlasDelta` out to every worker process. It
reuses the atlas framing (magic + length-prefixed compressed sections)
but differs from the bandwidth-accounting encoder in
:mod:`repro.atlas.delta` in two load-bearing ways:

* **lossless values** — latencies and losses travel as raw float64, not
  quantized units, so a worker that decodes the broadcast lands on
  exactly the atlas a co-located consumer holding the object delta
  lands on (bit-for-bit identical compiled arrays);
* **order-preserving** — ``links_updated`` (and ``loss_updated``) rows
  keep the delta's dict iteration order, because
  ``apply_delta_inplace`` appends genuinely new links in that order and
  the compiled emission order follows the ``links`` dict. Sorting the
  rows (as the size-accounting encoder does) would reorder appended
  links and silently fork a worker's graph from the service's.
  Monthly-refresh sections carry ``relationship_codes`` in full (both
  directions, no ``a < b`` halving) for the same reason: lossless
  round-trip beats compactness on this path.
"""

from __future__ import annotations

import struct
import zlib

from repro.atlas.model import Atlas, LinkRecord
from repro.errors import AtlasFormatError, CodecError

MAGIC = b"INNA"
FORMAT_VERSION = 1
#: version 2 is the **exact** anchor format: float64 link values, dict
#: iteration order preserved, relationship codes in full. It exists so a
#: gateway can fold its delta log into a fresh anchor (re-anchoring)
#: without breaking the anchor+INDB bit-for-bit convergence contract —
#: re-encoding a delta-evolved atlas with version 1 would re-quantize
#: values and re-sort appended links, silently forking every client that
#: bootstraps from the new anchor off the origin's runtime.
EXACT_FORMAT_VERSION = 2

#: hard ceiling on one decompressed section — a corrupt or hostile
#: length prefix must not balloon the decoder's memory
MAX_SECTION_BYTES = 256 * 1024 * 1024

#: Dataset names in serialization order; names match Table 2's rows where
#: the paper has them.
DATASET_ORDER = [
    "inter_cluster_links",
    "link_loss_rates",
    "prefix_to_cluster",
    "prefix_to_as",
    "cluster_to_as",
    "as_degrees",
    "as_three_tuples",
    "as_preferences",
    "provider_mappings",
    "relationships",
    "late_exit_pairs",
]

_LATENCY_UNIT_MS = 0.05  # stored as uint16 multiples: max ~3276 ms
_LOSS_UNIT = 1.0 / 10000.0


def _pack_rows(fmt: str, rows: list[tuple]) -> bytes:
    packer = struct.Struct(fmt)
    return b"".join(packer.pack(*row) for row in rows)


def _unpack_rows(fmt: str, payload: bytes) -> list[tuple]:
    packer = struct.Struct(fmt)
    if len(payload) % packer.size:
        raise CodecError(
            f"dataset payload of {len(payload)} bytes is not aligned to "
            f"{packer.size}-byte rows"
        )
    return [packer.unpack_from(payload, off) for off in range(0, len(payload), packer.size)]


def _read_sections(
    data: bytes, offset: int, n_sections: int, what: str
) -> dict[str, bytes]:
    """Shared section walk for the atlas and delta decoders: every
    length is validated against the remaining payload before use, so
    truncated or oversized frames raise :class:`~repro.errors.CodecError`
    instead of leaking ``struct.error`` / ``IndexError`` /
    ``zlib.error`` from arbitrary offsets."""
    sections: dict[str, bytes] = {}
    for _ in range(n_sections):
        if offset + 1 > len(data):
            raise CodecError(f"{what}: truncated before section name")
        (name_len,) = struct.unpack_from("<B", data, offset)
        offset += 1
        if offset + name_len + 8 > len(data):
            raise CodecError(f"{what}: truncated section header")
        try:
            name = data[offset : offset + name_len].decode("ascii")
        except UnicodeDecodeError as exc:
            raise CodecError(f"{what}: undecodable section name") from exc
        offset += name_len
        comp_len, raw_len = struct.unpack_from("<II", data, offset)
        offset += 8
        if raw_len > MAX_SECTION_BYTES:
            raise CodecError(
                f"{what}: section {name} declares {raw_len} bytes "
                f"(limit {MAX_SECTION_BYTES})"
            )
        if offset + comp_len > len(data):
            raise CodecError(
                f"{what}: section {name} truncated "
                f"({comp_len} bytes declared, {len(data) - offset} left)"
            )
        try:
            # bounded inflate: a bomb claiming a small raw_len stops at
            # raw_len + 1 bytes instead of materializing its full output
            decomp = zlib.decompressobj()
            raw = decomp.decompress(data[offset : offset + comp_len], raw_len + 1)
        except zlib.error as exc:
            raise CodecError(f"{what}: section {name} is corrupt: {exc}") from exc
        if (
            len(raw) != raw_len
            or not decomp.eof
            or decomp.unconsumed_tail
            or decomp.unused_data
        ):
            raise CodecError(f"{what}: section {name} length mismatch")
        sections[name] = raw
        offset += comp_len
    if offset != len(data):
        raise CodecError(
            f"{what}: {len(data) - offset} trailing bytes after the last "
            f"section"
        )
    return sections


def _encode_latency(latency_ms: float) -> int:
    return min(0xFFFF, max(1, round(latency_ms / _LATENCY_UNIT_MS)))


def _decode_latency(units: int) -> float:
    return units * _LATENCY_UNIT_MS


def _encode_loss(loss: float) -> int:
    return min(0xFFFF, max(0, round(loss / _LOSS_UNIT)))


def _decode_loss(units: int) -> float:
    return units * _LOSS_UNIT


def _shared_payloads(atlas: Atlas) -> dict[str, bytes]:
    """The sections encoded identically by both format versions."""
    payloads: dict[str, bytes] = {}
    payloads["prefix_to_cluster"] = _pack_rows(
        "<II", sorted(atlas.prefix_to_cluster.items())
    )
    payloads["prefix_to_as"] = _pack_rows("<II", sorted(atlas.prefix_to_as.items()))
    payloads["cluster_to_as"] = _pack_rows("<II", sorted(atlas.cluster_to_as.items()))
    payloads["as_three_tuples"] = _pack_rows("<III", sorted(atlas.three_tuples))
    payloads["as_preferences"] = _pack_rows("<III", sorted(atlas.preferences))

    provider_rows: list[tuple[int, int, int, int]] = []
    for asn, providers in sorted(atlas.providers.items()):
        for provider in sorted(providers):
            provider_rows.append((0, asn, provider, 0))
    for prefix_index, providers in sorted(atlas.prefix_providers.items()):
        for provider in sorted(providers):
            provider_rows.append((1, prefix_index, provider, 0))
    for asn, ups in sorted(atlas.upstreams.items()):
        for upstream in sorted(ups):
            provider_rows.append((2, asn, upstream, 0))
    payloads["provider_mappings"] = _pack_rows("<BIIB", provider_rows)

    payloads["late_exit_pairs"] = _pack_rows(
        "<II", sorted(tuple(sorted(p)) for p in atlas.late_exit_pairs)
    )
    return payloads


def dataset_payloads(atlas: Atlas) -> dict[str, bytes]:
    """Serialize each dataset independently (uncompressed bytes)."""
    payloads = _shared_payloads(atlas)
    payloads["inter_cluster_links"] = _pack_rows(
        "<IIH",
        [
            (a, b, _encode_latency(rec.latency_ms))
            for (a, b), rec in sorted(atlas.links.items())
        ],
    )
    payloads["link_loss_rates"] = _pack_rows(
        "<IIH",
        [
            (a, b, _encode_loss(loss))
            for (a, b), loss in sorted(atlas.link_loss.items())
        ],
    )
    payloads["as_degrees"] = _pack_rows("<IH", sorted(atlas.as_degrees.items()))
    payloads["relationships"] = _pack_rows(
        "<IIB",
        [
            (a, b, code)
            for (a, b), code in sorted(atlas.relationship_codes.items())
            if a < b
        ],
    )
    return payloads


def dataset_payloads_exact(atlas: Atlas) -> dict[str, bytes]:
    """Version-2 payloads: lossless values, dict-order rows.

    Differs from :func:`dataset_payloads` only where version 1 loses
    information:

    * ``inter_cluster_links`` — float64 latency **and** loss, rows in
      ``atlas.links`` iteration order (the compiled emission order);
    * ``link_loss_rates`` — float64 loss in dict order;
    * ``as_degrees`` — int64 (monthly refreshes carry ``<Iq``);
    * ``relationships`` — both directions verbatim, no ``a < b``
      halving, so asymmetric codes survive the round trip.
    """
    payloads = _shared_payloads(atlas)
    payloads["inter_cluster_links"] = _pack_rows(
        "<IIdd",
        [
            (a, b, rec.latency_ms, rec.loss_rate)
            for (a, b), rec in atlas.links.items()
        ],
    )
    payloads["link_loss_rates"] = _pack_rows(
        "<IId",
        [(a, b, loss) for (a, b), loss in atlas.link_loss.items()],
    )
    payloads["as_degrees"] = _pack_rows("<Iq", sorted(atlas.as_degrees.items()))
    payloads["relationships"] = _pack_rows(
        "<IIB",
        [(a, b, code) for (a, b), code in atlas.relationship_codes.items()],
    )
    return payloads


def encode_atlas(atlas: Atlas, compress_level: int = 6, *, exact: bool = False) -> bytes:
    """Full wire encoding: header + per-dataset compressed sections.

    ``exact=True`` emits format version 2 (see
    :func:`dataset_payloads_exact`): a lossless, order-preserving anchor
    whose decode reproduces ``atlas`` bit-for-bit — including link
    insertion order, which the compiled graph emission follows. Publish
    paths keep the default version 1 (quantized, sorted, smaller).
    """
    payloads = dataset_payloads_exact(atlas) if exact else dataset_payloads(atlas)
    out = bytearray()
    out += MAGIC
    out += struct.pack(
        "<HI", EXACT_FORMAT_VERSION if exact else FORMAT_VERSION, atlas.day
    )
    out += struct.pack("<B", len(DATASET_ORDER))
    for name in DATASET_ORDER:
        compressed = zlib.compress(payloads[name], compress_level)
        name_bytes = name.encode("ascii")
        out += struct.pack("<B", len(name_bytes))
        out += name_bytes
        out += struct.pack("<II", len(compressed), len(payloads[name]))
        out += compressed
    return bytes(out)


def decode_atlas(data: bytes) -> Atlas:
    """Inverse of :func:`encode_atlas`; validates framing (truncated or
    oversized frames raise :class:`~repro.errors.CodecError`)."""
    if len(data) < 11:
        raise CodecError(f"atlas frame of {len(data)} bytes has no header")
    if data[:4] != MAGIC:
        raise AtlasFormatError("bad magic")
    version, day = struct.unpack_from("<HI", data, 4)
    if version not in (FORMAT_VERSION, EXACT_FORMAT_VERSION):
        raise AtlasFormatError(f"unsupported atlas format version {version}")
    exact = version == EXACT_FORMAT_VERSION
    (n_sections,) = struct.unpack_from("<B", data, 10)
    sections = _read_sections(data, 11, n_sections, "atlas")

    atlas = Atlas(day=day)
    if exact:
        for a, b, lat, loss in _unpack_rows(
            "<IIdd", sections.get("inter_cluster_links", b"")
        ):
            atlas.links[(a, b)] = LinkRecord(latency_ms=lat, loss_rate=loss)
        for a, b, loss in _unpack_rows("<IId", sections.get("link_loss_rates", b"")):
            atlas.link_loss[(a, b)] = loss
    else:
        for a, b, lat in _unpack_rows("<IIH", sections.get("inter_cluster_links", b"")):
            atlas.links[(a, b)] = LinkRecord(latency_ms=_decode_latency(lat))
        for a, b, loss in _unpack_rows("<IIH", sections.get("link_loss_rates", b"")):
            atlas.link_loss[(a, b)] = _decode_loss(loss)
    atlas.prefix_to_cluster = {
        k: v for k, v in _unpack_rows("<II", sections.get("prefix_to_cluster", b""))
    }
    atlas.prefix_to_as = {
        k: v for k, v in _unpack_rows("<II", sections.get("prefix_to_as", b""))
    }
    atlas.cluster_to_as = {
        k: v for k, v in _unpack_rows("<II", sections.get("cluster_to_as", b""))
    }
    atlas.as_degrees = {
        k: v
        for k, v in _unpack_rows(
            "<Iq" if exact else "<IH", sections.get("as_degrees", b"")
        )
    }
    atlas.three_tuples = {
        (a, b, c) for a, b, c in _unpack_rows("<III", sections.get("as_three_tuples", b""))
    }
    atlas.preferences = {
        (a, b, c) for a, b, c in _unpack_rows("<III", sections.get("as_preferences", b""))
    }
    providers: dict[int, set[int]] = {}
    prefix_providers: dict[int, set[int]] = {}
    upstreams: dict[int, set[int]] = {}
    for kind, key, value, _ in _unpack_rows("<BIIB", sections.get("provider_mappings", b"")):
        target = {0: providers, 1: prefix_providers, 2: upstreams}[kind]
        target.setdefault(key, set()).add(value)
    atlas.providers = {k: frozenset(v) for k, v in providers.items()}
    atlas.prefix_providers = {k: frozenset(v) for k, v in prefix_providers.items()}
    atlas.upstreams = {k: frozenset(v) for k, v in upstreams.items()}
    if exact:
        for a, b, code in _unpack_rows("<IIB", sections.get("relationships", b"")):
            atlas.relationship_codes[(a, b)] = code
    else:
        for a, b, code in _unpack_rows("<IIB", sections.get("relationships", b"")):
            from repro.atlas.relationships import _CODE_INVERSE

            atlas.relationship_codes[(a, b)] = code
            atlas.relationship_codes[(b, a)] = _CODE_INVERSE[code]
    atlas.late_exit_pairs = {
        frozenset((a, b)) for a, b in _unpack_rows("<II", sections.get("late_exit_pairs", b""))
    }
    return atlas


DELTA_MAGIC = b"INDB"  # iNano delta broadcast
DELTA_FORMAT_VERSION = 1

#: broadcast sections in wire order; ``m:*`` sections appear only on
#: monthly-refresh days
_DELTA_SECTIONS = [
    "links_removed",
    "links_updated",
    "loss_removed",
    "loss_updated",
    "tuples_removed",
    "tuples_added",
    "m:prefix_to_cluster",
    "m:prefix_to_as",
    "m:cluster_to_as",
    "m:as_degrees",
    "m:as_preferences",
    "m:providers",
    "m:prefix_providers",
    "m:upstreams",
    "m:relationship_codes",
    "m:late_exit_pairs",
]


def _delta_payloads_exact(delta) -> dict[str, bytes]:
    """Per-section broadcast payloads (uncompressed, lossless)."""
    payloads: dict[str, bytes] = {
        "links_removed": _pack_rows("<II", sorted(delta.links_removed)),
        "links_updated": _pack_rows(
            "<IIdd",
            [
                (a, b, rec.latency_ms, rec.loss_rate)
                for (a, b), rec in delta.links_updated.items()
            ],
        ),
        "loss_removed": _pack_rows("<II", sorted(delta.loss_removed)),
        "loss_updated": _pack_rows(
            "<IId",
            [(a, b, loss) for (a, b), loss in delta.loss_updated.items()],
        ),
        "tuples_removed": _pack_rows("<III", sorted(delta.tuples_removed)),
        "tuples_added": _pack_rows("<III", sorted(delta.tuples_added)),
    }
    refresh = delta.monthly_refresh
    if refresh:
        payloads["m:prefix_to_cluster"] = _pack_rows(
            "<II", list(refresh["prefix_to_cluster"].items())
        )
        payloads["m:prefix_to_as"] = _pack_rows(
            "<II", list(refresh["prefix_to_as"].items())
        )
        payloads["m:cluster_to_as"] = _pack_rows(
            "<II", list(refresh["cluster_to_as"].items())
        )
        payloads["m:as_degrees"] = _pack_rows(
            "<Iq", list(refresh["as_degrees"].items())
        )
        payloads["m:as_preferences"] = _pack_rows(
            "<III", sorted(refresh["as_preferences"])
        )
        for kind in ("providers", "prefix_providers", "upstreams"):
            payloads[f"m:{kind}"] = _pack_rows(
                "<II",
                [
                    (key, member)
                    for key, members in sorted(refresh[kind].items())
                    for member in sorted(members)
                ],
            )
        payloads["m:relationship_codes"] = _pack_rows(
            "<IIB",
            [
                (a, b, code)
                for (a, b), code in refresh["relationship_codes"].items()
            ],
        )
        payloads["m:late_exit_pairs"] = _pack_rows(
            "<II",
            sorted(tuple(sorted(p)) for p in refresh["late_exit_pairs"]),
        )
    return payloads


def encode_delta(delta, compress_level: int = 6) -> bytes:
    """Broadcast wire encoding of one daily delta (see module docstring).

    Inverse of :func:`decode_delta`. Distinct from
    :func:`repro.atlas.delta.encode_delta` (the paper's quantized
    size-accounting format, which has no decoder): this codec is
    lossless and order-preserving, so ``apply_delta_inplace`` of the
    decoded object reproduces the original's effect exactly.
    """
    payloads = _delta_payloads_exact(delta)
    out = bytearray()
    out += DELTA_MAGIC
    out += struct.pack(
        "<HII", DELTA_FORMAT_VERSION, delta.base_day, delta.new_day
    )
    present = [name for name in _DELTA_SECTIONS if name in payloads]
    out += struct.pack("<B", len(present))
    for name in present:
        compressed = zlib.compress(payloads[name], compress_level)
        name_bytes = name.encode("ascii")
        out += struct.pack("<B", len(name_bytes))
        out += name_bytes
        out += struct.pack("<II", len(compressed), len(payloads[name]))
        out += compressed
    return bytes(out)


def decode_delta(data: bytes):
    """Decode a broadcast payload back into an ``AtlasDelta``; validates
    framing. The decoded object feeds ``AtlasRuntime.apply_delta``
    directly — in-place atlas mutation, CSR patch, pool prewarm —
    with no intermediate representation."""
    from repro.atlas.delta import AtlasDelta

    if len(data) < 15:
        raise CodecError(f"delta frame of {len(data)} bytes has no header")
    if data[:4] != DELTA_MAGIC:
        raise AtlasFormatError("bad delta magic")
    version, base_day, new_day = struct.unpack_from("<HII", data, 4)
    if version != DELTA_FORMAT_VERSION:
        raise AtlasFormatError(f"unsupported delta format version {version}")
    (n_sections,) = struct.unpack_from("<B", data, 14)
    sections = _read_sections(data, 15, n_sections, "delta")

    delta = AtlasDelta(base_day=base_day, new_day=new_day)
    delta.links_removed = {
        (a, b) for a, b in _unpack_rows("<II", sections.get("links_removed", b""))
    }
    delta.links_updated = {
        (a, b): LinkRecord(latency_ms=lat, loss_rate=loss)
        for a, b, lat, loss in _unpack_rows(
            "<IIdd", sections.get("links_updated", b"")
        )
    }
    delta.loss_removed = {
        (a, b) for a, b in _unpack_rows("<II", sections.get("loss_removed", b""))
    }
    delta.loss_updated = {
        (a, b): loss
        for a, b, loss in _unpack_rows("<IId", sections.get("loss_updated", b""))
    }
    delta.tuples_removed = {
        t for t in _unpack_rows("<III", sections.get("tuples_removed", b""))
    }
    delta.tuples_added = {
        t for t in _unpack_rows("<III", sections.get("tuples_added", b""))
    }
    if "m:cluster_to_as" in sections or "m:relationship_codes" in sections:
        refresh: dict[str, object] = {
            "prefix_to_cluster": dict(
                _unpack_rows("<II", sections.get("m:prefix_to_cluster", b""))
            ),
            "prefix_to_as": dict(
                _unpack_rows("<II", sections.get("m:prefix_to_as", b""))
            ),
            "cluster_to_as": dict(
                _unpack_rows("<II", sections.get("m:cluster_to_as", b""))
            ),
            "as_degrees": dict(
                _unpack_rows("<Iq", sections.get("m:as_degrees", b""))
            ),
            "as_preferences": {
                t for t in _unpack_rows("<III", sections.get("m:as_preferences", b""))
            },
            "relationship_codes": {
                (a, b): code
                for a, b, code in _unpack_rows(
                    "<IIB", sections.get("m:relationship_codes", b"")
                )
            },
            "late_exit_pairs": {
                frozenset((a, b))
                for a, b in _unpack_rows("<II", sections.get("m:late_exit_pairs", b""))
            },
        }
        for kind in ("providers", "prefix_providers", "upstreams"):
            grouped: dict[int, set[int]] = {}
            for key, member in _unpack_rows("<II", sections.get(f"m:{kind}", b"")):
                grouped.setdefault(key, set()).add(member)
            refresh[kind] = {k: frozenset(v) for k, v in grouped.items()}
        delta.monthly_refresh = refresh
    return delta


def compressed_section_sizes(atlas: Atlas, compress_level: int = 6) -> dict[str, int]:
    """Per-dataset compressed byte counts (Table 2's middle column)."""
    return {
        name: len(zlib.compress(payload, compress_level))
        for name, payload in dataset_payloads(atlas).items()
    }
