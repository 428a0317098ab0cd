//! JSON (de)serialization of the vector indexes.
//!
//! Snapshots (`lim/snapshot-v1`, see `lim_core::persist`) ship prebuilt
//! indexes to the device instead of rebuilding them per process, the way
//! TinyAgent ships its precomputed retrieval index. Both index kinds
//! round-trip losslessly: vectors are stored as JSON numbers (f32 → f64
//! widening is exact, and the writer emits shortest-round-trip decimals),
//! so a restored index returns bit-identical scores and orderings.
//!
//! Documents are self-describing via a `kind` tag (`"flat"` / `"ivf"` /
//! `"hnsw"`), so a snapshot section can carry any kind and the loader
//! dispatches. Unknown *fields* are ignored (additive evolution); an
//! unknown `kind` is an error.

use std::error::Error;
use std::fmt;

use lim_json::Value;

use crate::{FlatIndex, HnswIndex, HnswParams, IvfIndex, IvfParams, Metric, VectorIndex};

/// Error raised when an index document cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeIndexError {
    /// What was wrong with the document.
    pub message: String,
}

impl fmt::Display for DecodeIndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode index: {}", self.message)
    }
}

impl Error for DecodeIndexError {}

fn err(message: impl Into<String>) -> DecodeIndexError {
    DecodeIndexError {
        message: message.into(),
    }
}

impl Metric {
    /// Stable serialization label (the `Display` string).
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Parses a label produced by [`Metric::label`].
    ///
    /// # Errors
    ///
    /// Returns the offending text on an unknown label.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "cosine" => Ok(Metric::Cosine),
            "inner-product" => Ok(Metric::InnerProduct),
            "euclidean" => Ok(Metric::Euclidean),
            other => Err(format!("unknown metric {other:?}")),
        }
    }
}

/// Serializes an `f32` slice as exact JSON numbers (`f32` → `f64`
/// widening is lossless, and the writer emits shortest-round-trip
/// decimals). Shared by every snapshot serializer in the workspace so
/// the encoding rule lives in one place.
pub fn floats_to_json(values: &[f32]) -> Value {
    values.iter().map(|v| Value::from(f64::from(*v))).collect()
}

/// Inverse of [`floats_to_json`]; `what` names the vector in errors.
///
/// # Errors
///
/// Returns [`DecodeIndexError`] when `doc` is not an array of numbers.
pub fn floats_from_json(doc: &Value, what: &str) -> Result<Vec<f32>, DecodeIndexError> {
    doc.as_array()
        .ok_or_else(|| err(format!("{what} must be an array")))?
        .iter()
        .map(|v| v.as_f64().map(|x| x as f32))
        .collect::<Option<Vec<f32>>>()
        .ok_or_else(|| err(format!("{what} components must be numbers")))
}

fn posting_to_json(id: u64, vector: &[f32]) -> Value {
    Value::object([
        ("id", Value::from(id as i64)),
        ("v", floats_to_json(vector)),
    ])
}

fn posting_from_json(doc: &Value, what: &str) -> Result<(u64, Vec<f32>), DecodeIndexError> {
    let id = doc
        .get("id")
        .and_then(Value::as_i64)
        .ok_or_else(|| err(format!("{what} missing id")))? as u64;
    let vector = floats_from_json(
        doc.get("v")
            .ok_or_else(|| err(format!("{what} missing v")))?,
        what,
    )?;
    Ok((id, vector))
}

/// Appends the tombstone list (removal order) when there is one. Emitted
/// only when non-empty so documents of unmutated indexes are byte-for-byte
/// what older writers produced (the field is additive).
fn insert_deleted(doc: &mut Value, deleted: &[u64]) {
    if !deleted.is_empty() {
        doc.insert(
            "deleted",
            deleted.iter().map(|id| Value::from(*id as i64)).collect(),
        );
    }
}

/// Reads the optional tombstone list; absent means none.
fn deleted_from_json(doc: &Value) -> Result<Vec<u64>, DecodeIndexError> {
    match doc.get("deleted") {
        None => Ok(Vec::new()),
        Some(list) => list
            .as_array()
            .ok_or_else(|| err("deleted must be an array"))?
            .iter()
            .map(|v| {
                v.as_i64()
                    .filter(|x| *x >= 0)
                    .map(|x| x as u64)
                    .ok_or_else(|| err("deleted entries must be ids"))
            })
            .collect(),
    }
}

/// Replays a persisted removal list against a freshly decoded index.
///
/// A writer compacts the moment the threshold trips, so a persisted
/// tombstone count is always strictly below it — if a replayed removal
/// reports a compaction the document cannot have come from a writer, and
/// restoring it would not reproduce the saved state bit-for-bit.
fn replay_deleted<E>(
    deleted: &[u64],
    mut remove: impl FnMut(u64) -> Result<bool, E>,
) -> Result<(), DecodeIndexError>
where
    E: fmt::Display,
{
    for &id in deleted {
        match remove(id) {
            Ok(false) => {}
            Ok(true) => {
                return Err(err(
                    "deleted list at or above the compaction threshold".to_string()
                ))
            }
            Err(e) => return Err(err(format!("deleted id {id}: {e}"))),
        }
    }
    Ok(())
}

fn header(kind: &str, dim: usize, metric: Metric) -> [(&'static str, Value); 3] {
    [
        ("kind", Value::from(kind.to_owned())),
        ("dim", Value::from(dim)),
        ("metric", Value::from(metric.label())),
    ]
}

fn decode_header(doc: &Value) -> Result<(String, usize, Metric), DecodeIndexError> {
    let kind = doc
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| err("missing kind tag"))?;
    let dim = doc
        .get("dim")
        .and_then(Value::as_i64)
        .filter(|d| *d > 0)
        .ok_or_else(|| err("missing positive dim"))? as usize;
    let metric = Metric::parse(
        doc.get("metric")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing metric"))?,
    )
    .map_err(err)?;
    Ok((kind.to_owned(), dim, metric))
}

/// Serializes a [`FlatIndex`] into a self-describing JSON document.
///
/// Tombstoned entries are captured exactly: postings are the full stored
/// sequence ([`FlatIndex::iter_all`]) and a `deleted` field carries the
/// removal order, so a restored index is bit-for-bit the saved one.
pub fn flat_to_json(index: &FlatIndex) -> Value {
    let mut doc = Value::object(header("flat", index.dim(), index.metric()));
    doc.insert(
        "postings",
        index
            .iter_all()
            .map(|(id, v)| posting_to_json(id, v))
            .collect(),
    );
    insert_deleted(&mut doc, index.tombstones());
    doc
}

/// Reconstructs a [`FlatIndex`] from a [`flat_to_json`] document.
///
/// # Errors
///
/// Returns [`DecodeIndexError`] on a wrong `kind` tag, missing members,
/// malformed vectors, dimension mismatches or duplicate ids.
pub fn flat_from_json(doc: &Value) -> Result<FlatIndex, DecodeIndexError> {
    let (kind, dim, metric) = decode_header(doc)?;
    if kind != "flat" {
        return Err(err(format!("expected kind \"flat\", found {kind:?}")));
    }
    let mut index = FlatIndex::new(dim, metric);
    for posting in doc
        .get("postings")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing postings"))?
    {
        let (id, vector) = posting_from_json(posting, "posting")?;
        index
            .add(id, &vector)
            .map_err(|e| err(format!("posting id {id}: {e}")))?;
    }
    replay_deleted(&deleted_from_json(doc)?, |id| index.remove(id))?;
    Ok(index)
}

/// Serializes an [`IvfIndex`] — coarse centroids plus per-cell postings —
/// so a restored index probes identically without re-running k-means.
/// Cells include tombstoned postings; a `deleted` field carries the
/// removal order so the restored index skips exactly the same entries.
pub fn ivf_to_json(index: &IvfIndex) -> Value {
    let params = index.params();
    let mut doc = Value::object(header("ivf", index.dim(), index.metric()));
    doc.insert(
        "params",
        Value::object([
            ("nlist", Value::from(params.nlist)),
            ("nprobe", Value::from(params.nprobe)),
            ("seed", Value::from(params.seed as i64)),
        ]),
    );
    doc.insert(
        "centroids",
        index
            .centroids()
            .iter()
            .map(|c| floats_to_json(c))
            .collect(),
    );
    doc.insert(
        "cells",
        index
            .cells()
            .iter()
            .map(|cell| {
                cell.iter()
                    .map(|(id, v)| posting_to_json(id, v))
                    .collect::<Value>()
            })
            .collect(),
    );
    insert_deleted(&mut doc, index.tombstones());
    doc
}

/// Reconstructs an [`IvfIndex`] from an [`ivf_to_json`] document.
///
/// # Errors
///
/// Returns [`DecodeIndexError`] on a wrong `kind` tag, missing members,
/// malformed vectors, dimension mismatches or duplicate ids.
pub fn ivf_from_json(doc: &Value) -> Result<IvfIndex, DecodeIndexError> {
    let (kind, dim, metric) = decode_header(doc)?;
    if kind != "ivf" {
        return Err(err(format!("expected kind \"ivf\", found {kind:?}")));
    }
    let params_doc = doc.get("params").ok_or_else(|| err("missing params"))?;
    let get = |key: &str| {
        params_doc
            .get(key)
            .and_then(Value::as_i64)
            .ok_or_else(|| err(format!("params missing {key}")))
    };
    let params = IvfParams {
        nlist: get("nlist")? as usize,
        nprobe: get("nprobe")? as usize,
        seed: get("seed")? as u64,
    };
    let centroids = doc
        .get("centroids")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing centroids"))?
        .iter()
        .map(|c| floats_from_json(c, "centroid"))
        .collect::<Result<Vec<Vec<f32>>, _>>()?;
    let mut cells = Vec::new();
    for cell in doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing cells"))?
    {
        let postings = cell
            .as_array()
            .ok_or_else(|| err("cell must be an array"))?
            .iter()
            .map(|p| posting_from_json(p, "cell posting"))
            .collect::<Result<Vec<(u64, Vec<f32>)>, _>>()?;
        cells.push(postings);
    }
    let mut index = IvfIndex::from_parts(dim, metric, params, centroids, cells)
        .map_err(|e| err(e.to_string()))?;
    replay_deleted(&deleted_from_json(doc)?, |id| index.remove(id))?;
    Ok(index)
}

/// Serializes an [`HnswIndex`] — postings in insertion order plus the full
/// per-node, per-layer adjacency and the entry point — so a restored index
/// traverses the graph bit-identically without rebuilding it.
///
/// Postings are the full node sequence including tombstoned entries
/// ([`HnswIndex::iter_all`]) — links refer to node indices, so dead nodes
/// must keep their slots — and a `deleted` field carries the removal order.
pub fn hnsw_to_json(index: &HnswIndex) -> Value {
    let params = index.params();
    let mut doc = Value::object(header("hnsw", index.dim(), index.metric()));
    doc.insert(
        "params",
        Value::object([
            ("m", Value::from(params.m)),
            ("ef_construction", Value::from(params.ef_construction)),
            ("ef_search", Value::from(params.ef_search)),
            ("seed", Value::from(params.seed as i64)),
        ]),
    );
    doc.insert(
        "postings",
        index
            .iter_all()
            .map(|(id, v)| posting_to_json(id, v))
            .collect(),
    );
    doc.insert(
        "links",
        index
            .links()
            .iter()
            .map(|layers| {
                layers
                    .iter()
                    .map(|peers| {
                        peers
                            .iter()
                            .map(|p| Value::from(*p as i64))
                            .collect::<Value>()
                    })
                    .collect::<Value>()
            })
            .collect(),
    );
    doc.insert(
        "entry",
        match index.entry() {
            Some(e) => Value::from(e as i64),
            None => Value::Null,
        },
    );
    insert_deleted(&mut doc, index.tombstones());
    doc
}

/// Reconstructs an [`HnswIndex`] from an [`hnsw_to_json`] document.
///
/// # Errors
///
/// Returns [`DecodeIndexError`] on a wrong `kind` tag, missing members,
/// malformed vectors or adjacency lists, dimension mismatches, duplicate
/// ids, or a structurally invalid graph (dangling links, bad entry point).
pub fn hnsw_from_json(doc: &Value) -> Result<HnswIndex, DecodeIndexError> {
    let (kind, dim, metric) = decode_header(doc)?;
    if kind != "hnsw" {
        return Err(err(format!("expected kind \"hnsw\", found {kind:?}")));
    }
    let params_doc = doc.get("params").ok_or_else(|| err("missing params"))?;
    let get = |key: &str| {
        params_doc
            .get(key)
            .and_then(Value::as_i64)
            .ok_or_else(|| err(format!("params missing {key}")))
    };
    let params = HnswParams {
        m: get("m")? as usize,
        ef_construction: get("ef_construction")? as usize,
        ef_search: get("ef_search")? as usize,
        seed: get("seed")? as u64,
    };
    if params.m < 2 {
        return Err(err("params m must be at least 2"));
    }
    let postings = doc
        .get("postings")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing postings"))?
        .iter()
        .map(|p| posting_from_json(p, "posting"))
        .collect::<Result<Vec<(u64, Vec<f32>)>, _>>()?;
    let mut links = Vec::new();
    for layers in doc
        .get("links")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing links"))?
    {
        let layers = layers
            .as_array()
            .ok_or_else(|| err("node links must be an array of layers"))?
            .iter()
            .map(|peers| {
                peers
                    .as_array()
                    .ok_or_else(|| err("layer links must be an array"))?
                    .iter()
                    .map(|p| {
                        p.as_i64()
                            .filter(|v| *v >= 0 && *v <= u32::MAX as i64)
                            .map(|v| v as u32)
                            .ok_or_else(|| err("link targets must be node indices"))
                    })
                    .collect::<Result<Vec<u32>, _>>()
            })
            .collect::<Result<Vec<Vec<u32>>, _>>()?;
        links.push(layers);
    }
    let entry = match doc.get("entry") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_i64()
                .filter(|e| *e >= 0 && *e <= u32::MAX as i64)
                .map(|e| e as u32)
                .ok_or_else(|| err("entry must be a node index"))?,
        ),
    };
    let mut index = HnswIndex::from_parts(dim, metric, params, postings, links, entry)
        .map_err(|e| err(e.to_string()))?;
    replay_deleted(&deleted_from_json(doc)?, |id| index.remove(id))?;
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorIndex;

    fn flat_sample() -> FlatIndex {
        let mut idx = FlatIndex::new(3, Metric::Cosine);
        idx.add(10, &[1.0, 0.25, -0.5]).unwrap();
        idx.add(20, &[0.0, 1.0, 0.125]).unwrap();
        idx.add(30, &[0.75, 0.0, 0.625]).unwrap();
        idx
    }

    fn ivf_sample() -> IvfIndex {
        let data: Vec<(u64, Vec<f32>)> = (0..64u64)
            .map(|i| (i, vec![(i % 8) as f32 + 0.125, (i / 8) as f32]))
            .collect();
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        IvfIndex::train(2, Metric::Euclidean, IvfParams::default(), &refs).unwrap()
    }

    #[test]
    fn flat_roundtrip_is_bit_identical() {
        let idx = flat_sample();
        let restored = flat_from_json(&flat_to_json(&idx)).expect("roundtrip");
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.metric(), idx.metric());
        for ((a_id, a_v), (b_id, b_v)) in restored.iter().zip(idx.iter()) {
            assert_eq!(a_id, b_id);
            assert_eq!(a_v, b_v, "vectors must round-trip exactly");
        }
    }

    #[test]
    fn flat_roundtrip_through_text_searches_identically() {
        let idx = flat_sample();
        let text = flat_to_json(&idx).to_string();
        let restored = flat_from_json(&lim_json::parse(&text).unwrap()).unwrap();
        let query = [0.9, 0.3, 0.1];
        let a = idx.search(&query, 3);
        let b = restored.search(&query, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "scores bit-equal");
        }
    }

    #[test]
    fn ivf_roundtrip_preserves_cells_and_search() {
        let idx = ivf_sample();
        let text = ivf_to_json(&idx).to_string();
        let restored = ivf_from_json(&lim_json::parse(&text).unwrap()).expect("roundtrip");
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.cell_count(), idx.cell_count());
        assert_eq!(restored.params(), idx.params());
        for q in [[0.0f32, 0.0], [3.2, 4.1], [7.0, 7.0]] {
            let a = idx.search(&q, 5);
            let b = restored.search(&q, 5);
            assert_eq!(a.len(), b.len(), "query {q:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    fn hnsw_sample() -> HnswIndex {
        let data: Vec<(u64, Vec<f32>)> = (0..64u64)
            .map(|i| (i, vec![(i % 8) as f32 + 0.125, (i / 8) as f32]))
            .collect();
        let refs: Vec<(u64, &[f32])> = data.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        HnswIndex::train(2, Metric::Euclidean, HnswParams::default(), &refs).unwrap()
    }

    #[test]
    fn hnsw_roundtrip_preserves_graph_and_search() {
        let idx = hnsw_sample();
        let text = hnsw_to_json(&idx).to_string();
        let restored = hnsw_from_json(&lim_json::parse(&text).unwrap()).expect("roundtrip");
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.params(), idx.params());
        assert_eq!(restored.links(), idx.links());
        assert_eq!(restored.entry(), idx.entry());
        for q in [[0.0f32, 0.0], [3.2, 4.1], [7.0, 7.0]] {
            let a = idx.search(&q, 5);
            let b = restored.search(&q, 5);
            assert_eq!(a.len(), b.len(), "query {q:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn hnsw_encoding_is_byte_deterministic() {
        let a = hnsw_to_json(&hnsw_sample()).to_string();
        let b = hnsw_to_json(&hnsw_sample()).to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn hnsw_decode_rejects_corrupt_documents() {
        for field in ["params", "postings", "links", "entry"] {
            let mut broken = hnsw_to_json(&hnsw_sample());
            broken.insert(field, Value::Null);
            // A nulled entry is "no entry point", which from_parts rejects
            // for a non-empty graph; the rest fail in the decoder itself.
            assert!(hnsw_from_json(&broken).is_err(), "nulled {field}");
        }
        let mut dangling = hnsw_to_json(&hnsw_sample());
        dangling.insert("links", Value::from(5));
        assert!(hnsw_from_json(&dangling).is_err(), "links must be an array");
    }

    #[test]
    fn decode_rejects_wrong_kind_and_corrupt_documents() {
        let flat = flat_to_json(&flat_sample());
        let ivf = ivf_to_json(&ivf_sample());
        let hnsw = hnsw_to_json(&hnsw_sample());
        assert!(flat_from_json(&ivf).is_err(), "kind mismatch");
        assert!(ivf_from_json(&flat).is_err(), "kind mismatch");
        assert!(hnsw_from_json(&flat).is_err(), "kind mismatch");
        assert!(flat_from_json(&hnsw).is_err(), "kind mismatch");

        for field in ["kind", "dim", "metric", "postings"] {
            let mut broken = flat_to_json(&flat_sample());
            broken.insert(field, Value::Null);
            assert!(flat_from_json(&broken).is_err(), "nulled {field}");
        }
        for field in ["params", "centroids", "cells"] {
            let mut broken = ivf_to_json(&ivf_sample());
            broken.insert(field, Value::Null);
            assert!(ivf_from_json(&broken).is_err(), "nulled {field}");
        }
        let mut bad_metric = flat_to_json(&flat_sample());
        bad_metric.insert("metric", Value::from("hamming"));
        assert!(flat_from_json(&bad_metric).is_err());
    }

    #[test]
    fn decode_rejects_duplicate_ids_and_dim_mismatches() {
        let mut doc = flat_to_json(&flat_sample());
        let postings = doc.get("postings").unwrap().as_array().unwrap().to_vec();
        let mut dup = postings.clone();
        dup.push(postings[0].clone());
        doc.insert("postings", dup.into_iter().collect::<Value>());
        assert!(flat_from_json(&doc).is_err(), "duplicate id");

        let mut doc = flat_to_json(&flat_sample());
        doc.insert("dim", Value::from(2));
        assert!(flat_from_json(&doc).is_err(), "vector/dim mismatch");
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let mut doc = flat_to_json(&flat_sample());
        doc.insert("future_field", Value::from("ignored"));
        assert!(flat_from_json(&doc).is_ok());
    }

    #[test]
    fn mutated_flat_roundtrip_preserves_tombstones_exactly() {
        let mut idx = flat_sample();
        idx.remove(20).unwrap();
        idx.add(40, &[0.5, 0.5, 0.5]).unwrap();
        let text = flat_to_json(&idx).to_string();
        let restored = flat_from_json(&lim_json::parse(&text).unwrap()).unwrap();
        assert_eq!(restored.tombstones(), idx.tombstones());
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.iter_all().count(), idx.iter_all().count());
        let a = idx.search(&[0.9, 0.3, 0.1], 4);
        let b = restored.search(&[0.9, 0.3, 0.1], 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn mutated_ivf_and_hnsw_roundtrip_search_identically() {
        let mut ivf = ivf_sample();
        ivf.remove(5).unwrap();
        ivf.remove(17).unwrap();
        ivf.add(100, &[3.5, 3.5]).unwrap();
        let restored = ivf_from_json(&lim_json::parse(&ivf_to_json(&ivf).to_string()).unwrap())
            .expect("ivf roundtrip");
        assert_eq!(restored.tombstones(), ivf.tombstones());
        assert_eq!(restored.len(), ivf.len());

        let mut hnsw = hnsw_sample();
        hnsw.remove(5).unwrap();
        hnsw.add(100, &[3.5, 3.5]).unwrap();
        let restored_h =
            hnsw_from_json(&lim_json::parse(&hnsw_to_json(&hnsw).to_string()).unwrap())
                .expect("hnsw roundtrip");
        assert_eq!(restored_h.tombstones(), hnsw.tombstones());
        assert_eq!(restored_h.links(), hnsw.links());
        for q in [[0.0f32, 0.0], [3.2, 4.1]] {
            for (x, y) in ivf.search(&q, 5).iter().zip(&restored.search(&q, 5)) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
            for (x, y) in hnsw.search(&q, 5).iter().zip(&restored_h.search(&q, 5)) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn corrupt_deleted_lists_are_rejected() {
        let mut idx = flat_sample();
        idx.remove(20).unwrap();
        // deleted naming an id that is not stored
        let mut doc = flat_to_json(&idx);
        doc.insert("deleted", [Value::from(999)].into_iter().collect());
        assert!(flat_from_json(&doc).is_err(), "unknown deleted id");
        // deleted that is not an array
        let mut doc = flat_to_json(&idx);
        doc.insert("deleted", Value::from("nope"));
        assert!(flat_from_json(&doc).is_err(), "deleted must be an array");
        // duplicate tombstone (second removal of a dead id)
        let mut doc = flat_to_json(&idx);
        doc.insert(
            "deleted",
            [Value::from(20), Value::from(20)].into_iter().collect(),
        );
        assert!(flat_from_json(&doc).is_err(), "double tombstone");
    }
}
