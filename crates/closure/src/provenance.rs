//! Merge provenance: the spanning-forest edge log and cluster-size
//! telemetry.
//!
//! The union-find forest ([`crate::UnionFind`]) answers *whether* two
//! records were merged but discards the evidence the moment a union
//! succeeds. [`ProvenanceLog`] keeps that evidence: one [`MergeEdge`] per
//! *successful* union ever performed — which rule fired, in which pass,
//! during which batch. Because only successful unions record an edge, the
//! log is exactly a spanning forest of the closure graph: at most `N − 1`
//! edges for `N` records, so O(N) memory even at the 10M-record scale
//! (24 bytes per edge ≈ 240 MB worst case, typically far less since most
//! records never merge).
//!
//! The unique forest path between two connected records is the *evidence
//! chain* behind their equivalence; [`ProvenanceLog::explain`] walks it.
//!
//! [`ClusterSizes`] tracks the closure's cluster-size distribution
//! incrementally (a log2 histogram, the largest cluster, and the
//! non-singleton cluster count) so the serving layer can export
//! match-quality telemetry without an O(N) sweep per batch.

use crate::{ClassRing, UnionFind};

/// One successful `union(a, b)` with the evidence that caused it.
///
/// `rule_id` indexes the equational theory's stable rule table
/// (`EquationalTheory::rule_names` in `mp-rules`); `pass` is the
/// zero-based sorted-neighborhood pass; `batch_seq` is the 1-based ingest
/// batch during which the union happened. The trace id of that batch
/// lives in the log's per-batch table ([`ProvenanceLog::trace_for`]), not
/// inline, so an edge stays a fixed 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeEdge {
    /// Smaller record id of the unioned pair.
    pub a: u32,
    /// Larger record id of the unioned pair.
    pub b: u32,
    /// Zero-based index of the pass whose window scan found the pair.
    pub pass: u32,
    /// Index into the theory's stable rule table of the rule that fired.
    pub rule_id: u32,
    /// 1-based ingest batch sequence during which the union happened.
    pub batch_seq: u64,
}

/// Bytes per encoded [`MergeEdge`].
const EDGE_BYTES: usize = 24;

/// The durable merge lineage: every edge of the closure's spanning
/// forest, the trace id of every batch that produced at least one edge,
/// and lifetime per-rule firing counts.
///
/// The log is append-only and deterministic: the engine's band-replicated
/// scan guarantees the same pairs are found in the same order on every
/// engine configuration, so serial, parallel, and banded runs — and
/// journal replay after a crash — produce byte-identical logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceLog {
    /// Spanning-forest edges in the order the unions happened.
    pub edges: Vec<MergeEdge>,
    /// `(batch_seq, trace_id)` pairs, strictly increasing by seq; only
    /// batches that were explicitly annotated appear (replay re-annotates
    /// from the journal, so the table survives crashes).
    pub batch_traces: Vec<(u64, String)>,
    /// Lifetime count of window pairs each rule matched, indexed by
    /// `rule_id`. Counts every *found* pair (including re-finds of pairs
    /// already in the closure), so it measures rule selectivity, not just
    /// forest growth.
    pub rule_firings: Vec<u64>,
}

impl ProvenanceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of edges recorded (= successful unions ever).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no union has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Appends one successful-union edge.
    pub fn record_edge(&mut self, edge: MergeEdge) {
        self.edges.push(edge);
    }

    /// Counts one matched window pair for `rule_id`, growing the table as
    /// needed.
    pub fn note_firing(&mut self, rule_id: u32) {
        let idx = rule_id as usize;
        if idx >= self.rule_firings.len() {
            self.rule_firings.resize(idx + 1, 0);
        }
        self.rule_firings[idx] += 1;
    }

    /// Annotates batch `seq` with its trace id. Idempotent for a repeated
    /// seq (the first annotation wins); seqs must otherwise arrive in
    /// increasing order, which the engine's monotone batch counter
    /// guarantees.
    pub fn note_batch_trace(&mut self, seq: u64, trace: &str) {
        match self.batch_traces.last() {
            Some(&(last, _)) if last == seq => {}
            Some(&(last, _)) if last > seq => {
                debug_assert!(false, "batch trace seq {seq} after {last}");
            }
            _ => self.batch_traces.push((seq, trace.to_string())),
        }
    }

    /// The trace id annotated for batch `seq`, if any.
    pub fn trace_for(&self, seq: u64) -> Option<&str> {
        self.batch_traces
            .binary_search_by_key(&seq, |&(s, _)| s)
            .ok()
            .map(|i| self.batch_traces[i].1.as_str())
    }

    /// The unique forest path from `a` to `b`: the ordered chain of merge
    /// edges whose transitivity implies `a ≡ b`. Returns `None` when no
    /// path exists in the *edge log* — either the records were never
    /// merged, or the closure predates the log (e.g. a bulk-loaded store,
    /// whose closure is rebuilt from pairs without per-union evidence).
    ///
    /// Edges are returned oriented along the walk (each edge touches the
    /// previous one's endpoint), in original `(a, b)` id order. `a == b`
    /// yields an empty chain.
    pub fn explain(&self, a: u32, b: u32) -> Option<Vec<MergeEdge>> {
        if a == b {
            return Some(Vec::new());
        }
        // Adjacency over only the ids that appear in edges; the forest has
        // ≤ N − 1 edges, so this is O(E) per call.
        use std::collections::HashMap;
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        for (i, e) in self.edges.iter().enumerate() {
            adj.entry(e.a).or_default().push(i as u32);
            adj.entry(e.b).or_default().push(i as u32);
        }
        if !adj.contains_key(&a) || !adj.contains_key(&b) {
            return None;
        }
        // BFS from `a`, remembering the edge that discovered each node.
        let mut via: HashMap<u32, u32> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([a]);
        via.insert(a, u32::MAX);
        while let Some(x) = queue.pop_front() {
            if x == b {
                break;
            }
            for &ei in adj.get(&x).into_iter().flatten() {
                let e = &self.edges[ei as usize];
                let other = if e.a == x { e.b } else { e.a };
                if let std::collections::hash_map::Entry::Vacant(v) = via.entry(other) {
                    v.insert(ei);
                    queue.push_back(other);
                }
            }
        }
        if !via.contains_key(&b) {
            return None;
        }
        // Reconstruct b → a, then reverse so the chain reads a → b.
        let mut chain = Vec::new();
        let mut x = b;
        while x != a {
            let ei = via[&x];
            let e = self.edges[ei as usize];
            chain.push(e);
            x = if e.a == x { e.b } else { e.a };
        }
        chain.reverse();
        Some(chain)
    }

    /// Serializes the log into `out` as a little-endian byte stream:
    /// edge count + fixed-width edges, trace count + `(seq, len, utf8)`
    /// entries, rule count + firings. The inverse is [`Self::decode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(4 + self.edges.len() * EDGE_BYTES);
        out.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
        for e in &self.edges {
            out.extend_from_slice(&e.a.to_le_bytes());
            out.extend_from_slice(&e.b.to_le_bytes());
            out.extend_from_slice(&e.pass.to_le_bytes());
            out.extend_from_slice(&e.rule_id.to_le_bytes());
            out.extend_from_slice(&e.batch_seq.to_le_bytes());
        }
        out.extend_from_slice(&(self.batch_traces.len() as u32).to_le_bytes());
        for (seq, trace) in &self.batch_traces {
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&(trace.len() as u32).to_le_bytes());
            out.extend_from_slice(trace.as_bytes());
        }
        out.extend_from_slice(&(self.rule_firings.len() as u32).to_le_bytes());
        for &f in &self.rule_firings {
            out.extend_from_slice(&f.to_le_bytes());
        }
    }

    /// Reconstructs a log serialized by [`Self::encode_into`]. Validates
    /// lengths, UTF-8, and that trace seqs strictly increase.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        struct R<'a> {
            buf: &'a [u8],
            pos: usize,
        }
        impl<'a> R<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
                if self.buf.len() - self.pos < n {
                    return Err("provenance blob truncated".into());
                }
                let s = &self.buf[self.pos..self.pos + n];
                self.pos += n;
                Ok(s)
            }
            fn u32(&mut self) -> Result<u32, String> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn u64(&mut self) -> Result<u64, String> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
        }
        let mut r = R { buf: bytes, pos: 0 };
        let n_edges = r.u32()? as usize;
        // Pre-size from what the buffer can actually hold, so a corrupt
        // count cannot force a huge allocation before the take() fails.
        let mut edges = Vec::with_capacity(n_edges.min(bytes.len() / EDGE_BYTES + 1));
        for _ in 0..n_edges {
            edges.push(MergeEdge {
                a: r.u32()?,
                b: r.u32()?,
                pass: r.u32()?,
                rule_id: r.u32()?,
                batch_seq: r.u64()?,
            });
        }
        let n_traces = r.u32()? as usize;
        let mut batch_traces = Vec::with_capacity(n_traces.min(bytes.len() / 12 + 1));
        let mut last_seq = 0u64;
        for i in 0..n_traces {
            let seq = r.u64()?;
            if i > 0 && seq <= last_seq {
                return Err(format!(
                    "batch trace seqs not strictly increasing ({last_seq} then {seq})"
                ));
            }
            last_seq = seq;
            let len = r.u32()? as usize;
            let trace = std::str::from_utf8(r.take(len)?)
                .map_err(|_| "batch trace id is not UTF-8".to_string())?
                .to_string();
            batch_traces.push((seq, trace));
        }
        let n_rules = r.u32()? as usize;
        let mut rule_firings = Vec::with_capacity(n_rules.min(bytes.len() / 8 + 1));
        for _ in 0..n_rules {
            rule_firings.push(r.u64()?);
        }
        if r.pos != bytes.len() {
            return Err(format!(
                "provenance blob has {} trailing bytes",
                bytes.len() - r.pos
            ));
        }
        Ok(ProvenanceLog {
            edges,
            batch_traces,
            rule_firings,
        })
    }
}

/// Log2 buckets cover the whole `u32` size range: bucket `k` holds
/// cluster sizes in `[2^k, 2^{k+1})`, so bucket 0 is exactly the
/// singletons.
pub const SIZE_BUCKETS: usize = 33;

/// Incremental cluster-size telemetry over a union-find closure.
///
/// Maintained alongside the forest by the engine: [`Self::grow`] when the
/// id space extends, [`Self::merge`] on every successful union (with the
/// two *pre-union* roots and the post-union root). Not persisted —
/// [`Self::rebuild`] recomputes the whole distribution from a restored
/// forest in O(N), together with the other piece of derived state that
/// shares this lifecycle, the [`ClassRing`].
#[derive(Debug, Clone)]
pub struct ClusterSizes {
    /// Cluster size, valid at the current root of each cluster.
    size: Vec<u32>,
    /// Log2 histogram of cluster sizes (bucket 0 = singletons).
    hist: [u64; SIZE_BUCKETS],
    largest: u32,
    /// Number of clusters with at least two members.
    clusters: u64,
}

impl ClusterSizes {
    /// `n` singletons.
    pub fn new(n: usize) -> Self {
        let mut cs = ClusterSizes {
            size: vec![1; n],
            hist: [0; SIZE_BUCKETS],
            largest: if n > 0 { 1 } else { 0 },
            clusters: 0,
        };
        cs.hist[0] = n as u64;
        cs
    }

    fn bucket(size: u32) -> usize {
        debug_assert!(size > 0);
        (31 - size.leading_zeros()) as usize
    }

    /// Extends the id space to `n` elements with fresh singletons; no-op
    /// when `n ≤ len`.
    pub fn grow(&mut self, n: usize) {
        let old = self.size.len();
        if n <= old {
            return;
        }
        self.size.resize(n, 1);
        self.hist[0] += (n - old) as u64;
        if self.largest == 0 {
            self.largest = 1;
        }
    }

    /// Folds one successful union into the distribution: `ra` and `rb`
    /// are the two roots *before* the union, `new_root` the root after.
    /// Returns the combined cluster size (for large-cluster alerting).
    pub fn merge(&mut self, ra: u32, rb: u32, new_root: u32) -> u32 {
        let (sa, sb) = (self.size[ra as usize], self.size[rb as usize]);
        self.hist[Self::bucket(sa)] -= 1;
        self.hist[Self::bucket(sb)] -= 1;
        let s = sa + sb;
        self.hist[Self::bucket(s)] += 1;
        self.size[new_root as usize] = s;
        self.largest = self.largest.max(s);
        match (sa > 1, sb > 1) {
            (false, false) => self.clusters += 1,
            (true, true) => self.clusters -= 1,
            _ => {}
        }
        s
    }

    /// Recomputes the closure's derived state from a forest (used after
    /// restoring a snapshot; the forest is cloned so `find`'s path
    /// compression does not disturb the caller's copy): the full size
    /// distribution and the class-member ring, from one `find` sweep.
    pub fn rebuild(uf: &UnionFind) -> (Self, ClassRing) {
        let mut uf = uf.clone();
        let n = uf.len();
        let mut cs = ClusterSizes {
            size: vec![0; n],
            hist: [0; SIZE_BUCKETS],
            largest: 0,
            clusters: 0,
        };
        let mut ring = ClassRing::new(n);
        for x in 0..n as u32 {
            let r = uf.find(x);
            cs.size[r as usize] += 1;
            if r != x {
                // `x` is visited once and is nobody's root, so it is
                // still a ring of one here: two different rings.
                ring.splice(r, x);
            }
        }
        for x in 0..n as u32 {
            if uf.find(x) == x {
                let s = cs.size[x as usize];
                cs.hist[Self::bucket(s)] += 1;
                cs.largest = cs.largest.max(s);
                if s > 1 {
                    cs.clusters += 1;
                }
            }
        }
        (cs, ring)
    }

    /// The log2 histogram (bucket `k` = sizes in `[2^k, 2^{k+1})`).
    pub fn histogram(&self) -> &[u64; SIZE_BUCKETS] {
        &self.hist
    }

    /// Size of the largest cluster (1 for an all-singleton space, 0 when
    /// empty).
    pub fn largest(&self) -> u32 {
        self.largest
    }

    /// Number of clusters with at least two members.
    pub fn cluster_count(&self) -> u64 {
        self.clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: u32, b: u32, pass: u32, rule: u32, seq: u64) -> MergeEdge {
        MergeEdge {
            a,
            b,
            pass,
            rule_id: rule,
            batch_seq: seq,
        }
    }

    #[test]
    fn explain_walks_the_forest_path() {
        let mut log = ProvenanceLog::new();
        // 0—1—2 and 4—5, as a forest.
        log.record_edge(edge(0, 1, 0, 3, 1));
        log.record_edge(edge(1, 2, 1, 7, 2));
        log.record_edge(edge(4, 5, 0, 0, 2));
        let chain = log.explain(0, 2).unwrap();
        assert_eq!(chain, vec![edge(0, 1, 0, 3, 1), edge(1, 2, 1, 7, 2)]);
        // The reverse query walks the same edges in reverse order.
        let back = log.explain(2, 0).unwrap();
        assert_eq!(back, vec![edge(1, 2, 1, 7, 2), edge(0, 1, 0, 3, 1)]);
        assert_eq!(log.explain(0, 0).unwrap(), vec![]);
        assert!(log.explain(0, 4).is_none(), "different trees");
        assert!(log.explain(0, 9).is_none(), "id never merged");
    }

    #[test]
    fn trace_table_is_deduplicated_and_searchable() {
        let mut log = ProvenanceLog::new();
        log.note_batch_trace(1, "aa-01");
        log.note_batch_trace(1, "aa-01");
        log.note_batch_trace(3, "aa-03");
        assert_eq!(log.batch_traces.len(), 2);
        assert_eq!(log.trace_for(1), Some("aa-01"));
        assert_eq!(log.trace_for(2), None);
        assert_eq!(log.trace_for(3), Some("aa-03"));
    }

    #[test]
    fn rule_firings_grow_on_demand() {
        let mut log = ProvenanceLog::new();
        log.note_firing(2);
        log.note_firing(0);
        log.note_firing(2);
        assert_eq!(log.rule_firings, vec![1, 0, 2]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut log = ProvenanceLog::new();
        log.record_edge(edge(0, 1, 0, 3, 1));
        log.record_edge(edge(1, 2, 2, 0, 4));
        log.note_batch_trace(1, "0badcafe-00000001");
        log.note_batch_trace(4, "0badcafe-00000004");
        log.note_firing(3);
        log.note_firing(3);
        let mut blob = Vec::new();
        log.encode_into(&mut blob);
        let back = ProvenanceLog::decode(&blob).unwrap();
        assert_eq!(back, log);

        let empty = ProvenanceLog::new();
        let mut blob = Vec::new();
        empty.encode_into(&mut blob);
        assert_eq!(ProvenanceLog::decode(&blob).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_corrupt_blobs() {
        let mut log = ProvenanceLog::new();
        log.record_edge(edge(0, 1, 0, 3, 1));
        log.note_batch_trace(1, "t1");
        log.note_firing(0);
        let mut blob = Vec::new();
        log.encode_into(&mut blob);

        assert!(ProvenanceLog::decode(&blob[..blob.len() - 1]).is_err());
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(ProvenanceLog::decode(&trailing).is_err());
        // An enormous claimed edge count must fail cleanly, not OOM.
        let mut huge = blob.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ProvenanceLog::decode(&huge).is_err());
        // Non-increasing trace seqs are rejected.
        let mut log2 = ProvenanceLog::new();
        log2.note_batch_trace(5, "a");
        log2.batch_traces.push((5, "b".into()));
        let mut blob2 = Vec::new();
        log2.encode_into(&mut blob2);
        assert!(ProvenanceLog::decode(&blob2).is_err());
    }

    #[test]
    fn cluster_sizes_track_merges_incrementally() {
        let mut uf = UnionFind::new(6);
        let mut cs = ClusterSizes::new(6);
        assert_eq!(cs.histogram()[0], 6);
        assert_eq!(cs.largest(), 1);
        assert_eq!(cs.cluster_count(), 0);

        // Mirror the engine's update protocol: roots before, merge after.
        let join = |uf: &mut UnionFind, cs: &mut ClusterSizes, a: u32, b: u32| {
            let (ra, rb) = (uf.find(a), uf.find(b));
            assert!(uf.union(a, b));
            cs.merge(ra, rb, uf.find(a))
        };
        assert_eq!(join(&mut uf, &mut cs, 0, 1), 2);
        assert_eq!(join(&mut uf, &mut cs, 2, 3), 2);
        assert_eq!(cs.cluster_count(), 2);
        assert_eq!(join(&mut uf, &mut cs, 1, 3), 4); // two pairs merge
        assert_eq!(cs.cluster_count(), 1);
        assert_eq!(cs.largest(), 4);
        assert_eq!(cs.histogram()[0], 2); // {4} {5}
        assert_eq!(cs.histogram()[1], 0);
        assert_eq!(cs.histogram()[2], 1); // {0,1,2,3}

        cs.grow(8);
        assert_eq!(cs.histogram()[0], 4);

        // The incremental state matches a from-scratch rebuild.
        uf.grow(8);
        let (rebuilt, _) = ClusterSizes::rebuild(&uf);
        assert_eq!(rebuilt.histogram(), cs.histogram());
        assert_eq!(rebuilt.largest(), cs.largest());
        assert_eq!(rebuilt.cluster_count(), cs.cluster_count());
    }

    #[test]
    fn cluster_sizes_empty_space() {
        let cs = ClusterSizes::new(0);
        assert_eq!(cs.largest(), 0);
        assert_eq!(cs.histogram().iter().sum::<u64>(), 0);
        let (rebuilt, ring) = ClusterSizes::rebuild(&UnionFind::new(0));
        assert_eq!(rebuilt.largest(), 0);
        assert!(ring.is_empty());
    }
}
