"""Correctness checkers that do not rely on the program's own output.

Each runs after the timed phases. They judge an answer against the atlas
the fleet should hold on that day, rebuilt here without any serving
code: day 0 as the published payload decodes, then
:func:`repro.atlas.delta.apply_delta` (the pure function, not the
runtime's in-place CSR patch) for each later day.

* :func:`check_spec` — the answer equals, bit for bit, what a legacy
  engine predictor built fresh from that day's atlas answers (no patch,
  no shards, no wire).
* :func:`check_path` — the answer holds the path properties: its
  endpoints are the source and destination clusters, each hop is a link
  of that day's atlas, and its AS path, latency and loss recompute
  exactly from that day's link records.
* :func:`check_days` — after a roll, every shard, the front-end and the
  subscriber report the pushed day.
"""

from __future__ import annotations


class CheckError(AssertionError):
    """An answer or a reported day that a checker rejected."""


def reference_atlases(atlas0, deltas) -> list:
    """The atlas the fleet should hold on each day, ``[day 0, ..., day n]``."""
    from repro.atlas.delta import apply_delta
    from repro.atlas.serialization import decode_atlas, encode_atlas

    atlases = [decode_atlas(encode_atlas(atlas0))]
    for delta in deltas:
        atlases.append(apply_delta(atlases[-1], delta))
    return atlases


def spec_predictor(atlas):
    from repro.core.predictor import INanoPredictor, PredictorConfig

    return INanoPredictor(atlas, PredictorConfig.inano(), engine="legacy")


def check_spec(spec, src: int, dst: int, answer) -> None:
    expected = spec.predict_or_none(src, dst)
    if answer != expected:
        raise CheckError(
            f"day {spec.atlas.day} {src}->{dst}: answered {answer}, "
            f"fresh spec predictor gives {expected}"
        )


def _hop(atlas, a: int, b: int) -> tuple[float, float]:
    """Latency and loss of hop ``a -> b``: the observed link, else the
    reverse adjacency the closed graph adds (same latency, no loss)."""
    record = atlas.links.get((a, b))
    if record is not None:
        return record.latency_ms, atlas.link_loss.get((a, b), 0.0)
    record = atlas.links.get((b, a))
    if record is not None:
        return record.latency_ms, 0.0
    raise CheckError(f"day {atlas.day}: hop {a}->{b} is no link of the atlas")


def check_path(atlas, src: int, dst: int, path) -> None:
    """Raise :class:`CheckError` unless ``path`` holds the path properties
    on ``atlas``; a ``None`` answer (no predicted route) holds none."""
    if path is None:
        return
    where = f"day {atlas.day} {src}->{dst}"
    clusters = path.clusters
    if clusters[0] != atlas.prefix_to_cluster[src]:
        raise CheckError(f"{where}: starts at cluster {clusters[0]}")
    if clusters[-1] != atlas.prefix_to_cluster[dst]:
        raise CheckError(f"{where}: ends at cluster {clusters[-1]}")
    latency, success = 0.0, 1.0
    for a, b in zip(clusters, clusters[1:]):
        hop_latency, hop_loss = _hop(atlas, a, b)
        latency += hop_latency
        success *= 1.0 - hop_loss
    as_path: list[int] = []
    for cluster in clusters:
        asn = atlas.cluster_to_as[cluster]
        if not as_path or as_path[-1] != asn:
            as_path.append(asn)
    if tuple(as_path) != path.as_path:
        raise CheckError(f"{where}: AS path {path.as_path}, links give {tuple(as_path)}")
    if latency != path.latency_ms:
        raise CheckError(f"{where}: latency {path.latency_ms!r}, links give {latency!r}")
    if 1.0 - success != path.loss:
        raise CheckError(f"{where}: loss {path.loss!r}, links give {1.0 - success!r}")


def check_days(day: int, shard_days, front_day: int, subscriber_day: int) -> None:
    reported = {"front-end": front_day, "subscriber": subscriber_day}
    reported.update({f"shard {i}": d for i, d in enumerate(shard_days)})
    wrong = {who: d for who, d in reported.items() if d != day}
    if wrong or not shard_days:
        raise CheckError(f"after pushing day {day}: {wrong or 'no shards'}")
