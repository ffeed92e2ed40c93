//! Post-training quantisation of forward-only graphs, driven node-by-node
//! by the absint feasibility table.
//!
//! [`crate::absint::audit_graph`] proves a value interval for every
//! reachable tensor and classifies each one `int8` / `f16` / `f32`
//! (scale and zero point included). This module is the executor half:
//!
//! * [`QuantStore`] — parameters quantised **once** at
//!   `Session::quantise` time through the *rejecting* encoder
//!   ([`encode_checked`]): a value outside its audit-proven interval is
//!   an error, never a silent clamp, because the interval is the proof
//!   that the affine grid covers the tensor.
//! * [`QuantPlan`] — per graph shape, the f32 inference plan's liveness
//!   (`ExecutionPlan::build_inference` start/end times) re-packed into
//!   **one byte-granular arena** with the same best-fit free-list
//!   discipline, sized in bytes (1/2/4 per element by class). A single
//!   arena lets an expiring f16 node's bytes be reused by an int8 or f32
//!   node and vice versa — exactly the cross-lifetime reuse the f32 plan
//!   gets — so the quantised arena shrinks the f32 inference arena
//!   instead of merely re-labelling it (class-segregated arenas lose
//!   that sharing and can *grow* on mixed-class graphs). Values are
//!   stored as little-endian bytes and copied through the elementwise
//!   codecs, so no slot needs alignment. The graph root is always pinned
//!   to the f32 class: the output score feeds a decision threshold, and
//!   snapping it to an int8 grid would flip near-threshold decisions for
//!   zero storage benefit (the root is live until the end anyway).
//! * [`QuantExecutor`] — a forward interpreter that mirrors the f32
//!   executor's per-op arithmetic exactly: operands are decoded into f32
//!   scratch, computed with the same shared `hiergat_tensor` kernels,
//!   and the result is encoded into its arena slot. Matmuls whose
//!   operands are both int8 route through the dequant-free integer GEMM
//!   (`hiergat_tensor::quant::matmul_u8_into`) instead — exact `i32`
//!   accumulation, zero points folded out once per element.
//!
//! # Determinism and the optimiser
//!
//! Every kernel the interpreter calls is bitwise width-invariant (the
//! f32 slice kernels are pinned so by the tensor suite; integer
//! accumulation is exact), and encode/decode are elementwise — so
//! quantised predictions are **identical at every `HIERGAT_THREADS`
//! width** by construction. The certified tape optimiser is deliberately
//! *not* applied: its certificates prove f32 semantics (bitwise
//! equivalence of rewrites), which lossy stores would void. A quantised
//! session therefore replays the as-recorded tape, as the f32 session
//! does.
//!
//! Quantised plans are cached in the executor's own shape-keyed cache
//! (the crate's one signature format and cap), so a quantised plan can
//! never alias an f32 plan. Decode scratch follows the
//! thread-local-scratch convention the f32 microkernel established: it
//! is reused across calls and is not part of any arena budget.

use crate::absint::{audit_graph, AbsintConfig, AuditReport, QuantEntry};
use crate::lint::Severity;
use crate::params::{ParamId, ParamStore};
use crate::plan::{ExecutionPlan, ShapeCache};
use crate::tape::{Op, Tape, Var};
use hiergat_tensor::quant::{
    f16_decode_slice, f16_decode_slice_le, f16_encode_slice, f16_encode_slice_le,
    f32_decode_slice_le, f32_encode_slice_le, matmul_u8_into, transpose_u8_into, u8_decode_slice,
    u8_encode_slice, F16_MAX, MAX_U8_GEMM_DEPTH,
};
use hiergat_tensor::{
    log_softmax_rows_inplace, matmul_into, matmul_nt_into, matmul_tn_into, row_moments_into,
    softmax_rows_inplace,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Storage class the audit proved feasible for one tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantClass {
    /// u8 affine codes, 1 byte per element.
    Int8,
    /// IEEE 754 binary16 bits, 2 bytes per element.
    F16,
    /// Plain f32 fallback, 4 bytes per element.
    F32,
}

impl QuantClass {
    /// Class name as the audit table spells it.
    pub fn name(self) -> &'static str {
        match self {
            QuantClass::Int8 => "int8",
            QuantClass::F16 => "f16",
            QuantClass::F32 => "f32",
        }
    }

    /// Storage bytes per element.
    pub fn bytes_per_elem(self) -> usize {
        match self {
            QuantClass::Int8 => 1,
            QuantClass::F16 => 2,
            QuantClass::F32 => 4,
        }
    }
}

/// Why quantisation was refused. Rejection is the contract: a tensor that
/// escapes its audit-proven interval must fail loudly, not clamp.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// A value fell outside the interval the audit proved for its tensor.
    OutOfInterval {
        /// Which tensor (parameter name or node label).
        tensor: String,
        /// The offending value.
        value: f32,
        /// Proven lower bound.
        lo: f64,
        /// Proven upper bound.
        hi: f64,
    },
    /// A value classified f16 does not fit finite binary16.
    NotF16 {
        /// Which tensor.
        tensor: String,
        /// The offending value.
        value: f32,
    },
    /// The audit reported numerical-safety findings at or above Warn;
    /// quantising a graph the interval pass cannot prove safe is refused.
    Unsafe {
        /// Finding count at or above the gate.
        findings: usize,
    },
    /// The graph contains an op the forward-only quantised interpreter
    /// does not execute (training losses).
    UnsupportedOp {
        /// Diagnostic op name.
        op: &'static str,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::OutOfInterval { tensor, value, lo, hi } => write!(
                f,
                "quantise {tensor}: value {value} outside the proven interval [{lo}, {hi}] \
                 (rejected, not clamped)"
            ),
            QuantError::NotF16 { tensor, value } => {
                write!(f, "quantise {tensor}: value {value} does not fit finite binary16")
            }
            QuantError::Unsafe { findings } => {
                write!(f, "quantise: audit reported {findings} numerical-safety finding(s)")
            }
            QuantError::UnsupportedOp { op } => {
                write!(f, "quantise: op '{op}' is not part of the forward-only inference engine")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Configuration for `Session::quantise`: how the feasibility audit seeds
/// the interval pass.
#[derive(Debug, Clone)]
pub struct QuantConfig {
    /// Symbolic bound for graph inputs (`inputs in [-B, B]`); parameters
    /// are always seeded from their observed values (weight-aware).
    pub input_bound: f64,
}

impl Default for QuantConfig {
    fn default() -> Self {
        // The same default box as the `hiergat audit` CLI gate.
        QuantConfig { input_bound: 8.0 }
    }
}

impl QuantConfig {
    /// The absint seeding this config audits with.
    pub fn audit_config(&self) -> AbsintConfig {
        AbsintConfig::weight_aware(self.input_bound)
    }
}

/// One tensor's storage codec: class plus the affine grid (int8 only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Codec {
    /// Storage class.
    pub class: QuantClass,
    /// Affine scale (0 unless int8).
    pub scale: f32,
    /// Affine zero point (0 unless int8).
    pub zero_point: u8,
}

impl Codec {
    /// The f32 passthrough codec.
    pub fn f32() -> Codec {
        Codec { class: QuantClass::F32, scale: 0.0, zero_point: 0 }
    }

    /// Builds the codec a feasibility-table entry prescribes.
    pub fn from_entry(e: &QuantEntry) -> Codec {
        let class = match e.class.as_str() {
            "int8" => QuantClass::Int8,
            "f16" => QuantClass::F16,
            _ => QuantClass::F32,
        };
        Codec { class, scale: e.scale as f32, zero_point: e.zero_point }
    }

    /// Worst-case `|decode(encode(v)) - v|` for an in-interval value `v`:
    /// half a grid step for int8 (plus f32 arithmetic slack), one
    /// round-to-nearest-even ulp for f16, zero for f32.
    pub fn roundtrip_bound(&self, v: f32) -> f32 {
        match self.class {
            QuantClass::Int8 => 0.501 * self.scale + 1e-5 * v.abs(),
            QuantClass::F16 => 2f32.powi(-11) * v.abs() + 2f32.powi(-25),
            QuantClass::F32 => 0.0,
        }
    }
}

/// Quantised storage for one tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantData {
    /// u8 affine codes.
    Int8(Vec<u8>),
    /// binary16 bit patterns.
    F16(Vec<u16>),
    /// Plain copy (f32 fallback).
    F32(Vec<f32>),
}

impl QuantData {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            QuantData::Int8(v) => v.len(),
            QuantData::F16(v) => v.len(),
            QuantData::F32(v) => v.len(),
        }
    }

    /// `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage bytes.
    pub fn bytes(&self) -> u64 {
        match self {
            QuantData::Int8(v) => v.len() as u64,
            QuantData::F16(v) => 2 * v.len() as u64,
            QuantData::F32(v) => 4 * v.len() as u64,
        }
    }

    /// Decodes into `out` (resized to fit).
    pub fn decode_into(&self, codec: &Codec, out: &mut Vec<f32>) {
        out.resize(self.len(), 0.0);
        match self {
            QuantData::Int8(q) => u8_decode_slice(q, codec.scale, codec.zero_point, out),
            QuantData::F16(bits) => f16_decode_slice(bits, out),
            QuantData::F32(v) => out.copy_from_slice(v),
        }
    }
}

/// The rejecting quantiser: encodes `vals` with `codec` **iff** every
/// value lies inside the proven interval `[lo, hi]` (and, for f16, fits
/// finite binary16). Out-of-interval values — including NaN — are an
/// error, never a clamp: the interval is the audit's proof that the grid
/// covers the tensor, and silently clamping would convert a soundness
/// bug into a numerics bug.
pub fn encode_checked(
    vals: &[f32],
    lo: f64,
    hi: f64,
    codec: &Codec,
    tensor: &str,
) -> Result<QuantData, QuantError> {
    for &v in vals {
        if !(f64::from(v) >= lo && f64::from(v) <= hi) {
            return Err(QuantError::OutOfInterval { tensor: tensor.to_string(), value: v, lo, hi });
        }
    }
    match codec.class {
        QuantClass::Int8 => {
            let mut q = vec![0u8; vals.len()];
            u8_encode_slice(vals, codec.scale, codec.zero_point, &mut q);
            Ok(QuantData::Int8(q))
        }
        QuantClass::F16 => {
            for &v in vals {
                if !v.is_finite() || v.abs() > F16_MAX {
                    return Err(QuantError::NotF16 { tensor: tensor.to_string(), value: v });
                }
            }
            let mut bits = vec![0u16; vals.len()];
            f16_encode_slice(vals, &mut bits);
            Ok(QuantData::F16(bits))
        }
        QuantClass::F32 => Ok(QuantData::F32(vals.to_vec())),
    }
}

/// Per-parameter storage slot in a [`QuantStore`].
#[derive(Debug, Clone)]
enum StoredParam {
    /// Quantised copy; the f32 original in the `ParamStore` is no longer
    /// read by the quantised executor.
    Quantised { codec: Codec, data: QuantData },
    /// f32 passthrough: read straight from the `ParamStore` (either the
    /// audit classified the tensor f32, or no audited graph reached it).
    Plain,
}

/// Weight-byte accounting for a quantised parameter set.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantStoreReport {
    /// Parameters stored as int8.
    pub int8_params: usize,
    /// Parameters stored as f16.
    pub f16_params: usize,
    /// Parameters left f32 (classified f32, or unreached by the audit).
    pub f32_params: usize,
    /// Bytes the same parameters occupy in f32.
    pub bytes_f32: u64,
    /// Bytes after quantisation (f32 passthroughs counted at 4 bytes).
    pub bytes_quantised: u64,
}

/// Audit-driven quantised parameter storage, built once per session by
/// the rejecting quantiser and immutable (shareable across score-batch
/// workers) afterwards.
#[derive(Debug, Clone)]
pub struct QuantStore {
    cfg: QuantConfig,
    params: Vec<StoredParam>,
    report: QuantStoreReport,
}

impl QuantStore {
    /// Audits the graph rooted at `root` with weight-aware seeding and
    /// quantises every parameter the feasibility table classifies below
    /// f32. Fails if the audit has findings at or above Warn, or if any
    /// parameter value escapes its proven interval (impossible for
    /// observed seeding unless the audit is unsound — which is exactly
    /// why it must be an error).
    pub fn build(
        tape: &Tape,
        root: Var,
        store: &ParamStore,
        cfg: &QuantConfig,
    ) -> Result<(QuantStore, AuditReport), QuantError> {
        let audit = audit_graph(tape, root, store, &cfg.audit_config());
        let findings = audit.findings.iter().filter(|f| f.severity >= Severity::Warn).count();
        if findings > 0 {
            return Err(QuantError::Unsafe { findings });
        }
        let mut params = vec![StoredParam::Plain; store.len()];
        for e in &audit.quant {
            let Op::Param(pid) = tape.op_at(e.op_index) else { continue };
            let codec = Codec::from_entry(e);
            if codec.class == QuantClass::F32 {
                continue;
            }
            let range = &audit.ranges[e.op_index];
            let vals = store.value(*pid).as_slice();
            let data = encode_checked(vals, range.lo, range.hi, &codec, store.name(*pid))?;
            params[pid.index()] = StoredParam::Quantised { codec, data };
        }
        let mut report = QuantStoreReport::default();
        for (slot, (_, _, t)) in params.iter().zip(store.iter()) {
            let elems = t.as_slice().len() as u64;
            report.bytes_f32 += 4 * elems;
            match slot {
                StoredParam::Quantised { codec, data } => {
                    report.bytes_quantised += data.bytes();
                    match codec.class {
                        QuantClass::Int8 => report.int8_params += 1,
                        QuantClass::F16 => report.f16_params += 1,
                        QuantClass::F32 => report.f32_params += 1,
                    }
                }
                StoredParam::Plain => {
                    report.bytes_quantised += 4 * elems;
                    report.f32_params += 1;
                }
            }
        }
        Ok((QuantStore { cfg: cfg.clone(), params, report }, audit))
    }

    /// The seeding config this store was built with (new graph shapes are
    /// audited with the same config at plan time).
    pub fn config(&self) -> &QuantConfig {
        &self.cfg
    }

    /// Weight-byte accounting.
    pub fn report(&self) -> QuantStoreReport {
        self.report
    }

    /// The codec a parameter is stored with (f32 when passthrough).
    pub fn param_codec(&self, id: ParamId) -> Codec {
        match self.params.get(id.index()) {
            Some(StoredParam::Quantised { codec, .. }) => *codec,
            _ => Codec::f32(),
        }
    }

    fn raw_u8(&self, id: ParamId) -> Option<(&[u8], f32, u8)> {
        match self.params.get(id.index()) {
            Some(StoredParam::Quantised {
                codec: Codec { class: QuantClass::Int8, scale, zero_point },
                data: QuantData::Int8(q),
            }) => Some((q, *scale, *zero_point)),
            _ => None,
        }
    }

    /// Decodes only the indexed rows of parameter `id` (row-major, `cols`
    /// columns per row) straight into `out`, never materialising the full
    /// table. Returns `false` for passthrough parameters, which gather
    /// zero-copy from the `ParamStore` instead.
    fn gather_rows_into(
        &self,
        id: ParamId,
        indices: &[usize],
        cols: usize,
        out: &mut [f32],
    ) -> bool {
        let Some(StoredParam::Quantised { codec, data }) = self.params.get(id.index()) else {
            return false;
        };
        match data {
            QuantData::Int8(q) => {
                for (dst, &idx) in out.chunks_exact_mut(cols).zip(indices) {
                    u8_decode_slice(
                        &q[idx * cols..(idx + 1) * cols],
                        codec.scale,
                        codec.zero_point,
                        dst,
                    );
                }
            }
            QuantData::F16(bits) => {
                for (dst, &idx) in out.chunks_exact_mut(cols).zip(indices) {
                    f16_decode_slice(&bits[idx * cols..(idx + 1) * cols], dst);
                }
            }
            QuantData::F32(v) => {
                for (dst, &idx) in out.chunks_exact_mut(cols).zip(indices) {
                    dst.copy_from_slice(&v[idx * cols..(idx + 1) * cols]);
                }
            }
        }
        true
    }

    /// Decodes parameter `id` into `buf` and returns the slice — or the
    /// original f32 slice, copy-free, for passthrough parameters.
    fn fetch<'a>(&'a self, store: &'a ParamStore, id: ParamId, buf: &'a mut Vec<f32>) -> &'a [f32] {
        match &self.params[id.index()] {
            StoredParam::Quantised { codec, data } => {
                data.decode_into(codec, buf);
                buf
            }
            StoredParam::Plain => store.value(id).as_slice(),
        }
    }
}

/// One node's storage assignment inside a [`QuantPlan`].
#[derive(Debug, Clone, Copy)]
struct NodeSlot {
    /// `false` = unreachable from the root (never executed or read).
    live: bool,
    codec: Codec,
    /// Byte offset inside the shared arena.
    offset: usize,
    /// Element count (bytes per element come from the codec class).
    len: usize,
    /// `true` when every read happens at the very next timestep: the
    /// value is handed to its consumer through the previous-output
    /// buffer and never touches the arena (no encode, no decode, no
    /// storage — quantisation noise included).
    transient: bool,
}

impl Default for NodeSlot {
    fn default() -> Self {
        NodeSlot { live: false, codec: Codec::f32(), offset: 0, len: 0, transient: false }
    }
}

/// Byte-granular best-fit free-list allocator — the same greedy
/// discipline `ExecutionPlan` uses, re-run in byte units over the f32
/// plan's proven lifetimes so every storage class shares one arena.
#[derive(Default)]
struct ByteAlloc {
    /// Free blocks `(offset, len)`, sorted by offset, coalesced.
    free: Vec<(usize, usize)>,
    /// Live blocks as `Reverse<(end_time, offset, len)>`.
    active: BinaryHeap<Reverse<(usize, usize, usize)>>,
    /// High-water byte count.
    extent: usize,
}

impl ByteAlloc {
    fn release_before(&mut self, time: usize) {
        while let Some(&Reverse((end, off, len))) = self.active.peek() {
            if end >= time {
                break;
            }
            self.active.pop();
            self.insert_free(off, len);
        }
    }

    fn insert_free(&mut self, off: usize, len: usize) {
        let at = self.free.partition_point(|&(o, _)| o < off);
        self.free.insert(at, (off, len));
        // Coalesce with the right, then the left, neighbour.
        if at + 1 < self.free.len() && self.free[at].0 + self.free[at].1 == self.free[at + 1].0 {
            self.free[at].1 += self.free[at + 1].1;
            self.free.remove(at + 1);
        }
        if at > 0 && self.free[at - 1].0 + self.free[at - 1].1 == self.free[at].0 {
            self.free[at - 1].1 += self.free[at].1;
            self.free.remove(at);
        }
    }

    fn alloc(&mut self, len: usize, end_time: usize) -> usize {
        // Smallest free block that fits; ties go to the lowest offset.
        let mut best: Option<usize> = None;
        for (i, &(_, flen)) in self.free.iter().enumerate() {
            if flen >= len && best.is_none_or(|b| flen < self.free[b].1) {
                best = Some(i);
            }
        }
        let off = if let Some(i) = best {
            let (off, flen) = self.free[i];
            if flen == len {
                self.free.remove(i);
            } else {
                self.free[i] = (off + len, flen - len);
            }
            off
        } else if self.free.last().is_some_and(|&(o, l)| o + l == self.extent) {
            // No block fits, but the last one touches the high-water mark:
            // extend the arena from its start instead of past its end.
            let (off, _) = self.free.pop().unwrap_or((self.extent, 0));
            self.extent = off + len;
            off
        } else {
            let off = self.extent;
            self.extent += len;
            off
        };
        self.active.push(Reverse((end_time, off, len)));
        off
    }
}

/// Ahead-of-time storage plan for one quantised graph shape: per-node
/// codecs from the feasibility table, byte offsets in one shared arena
/// packed from the f32 inference plan's liveness.
#[derive(Debug)]
pub struct QuantPlan {
    nodes: Vec<NodeSlot>,
    /// High-water byte count of the shared arena.
    arena_extent: usize,
    max_node_elems: usize,
    max_rows: usize,
    /// Live activation-node counts per class (int8, f16, f32).
    class_nodes: (usize, usize, usize),
    /// Arena bytes the plain f32 inference plan needs for this shape.
    f32_arena_bytes: u64,
}

impl QuantPlan {
    /// Audits `tape` up to `root` (same seeding as the store) and packs
    /// the shared byte arena. Fails on audit findings or on graphs
    /// containing training-only ops.
    pub fn build(
        tape: &Tape,
        root: Var,
        store: &ParamStore,
        cfg: &QuantConfig,
    ) -> Result<QuantPlan, QuantError> {
        for i in 0..=root.index() {
            if matches!(
                tape.op_at(i),
                Op::CrossEntropyLogits { .. }
                    | Op::WeightedCrossEntropyLogits { .. }
                    | Op::BceWithLogits { .. }
                    | Op::MseLoss { .. }
            ) {
                return Err(QuantError::UnsupportedOp { op: tape.op_name(i) });
            }
        }
        let audit = audit_graph(tape, root, store, &cfg.audit_config());
        let findings = audit.findings.iter().filter(|f| f.severity >= Severity::Warn).count();
        if findings > 0 {
            return Err(QuantError::Unsafe { findings });
        }
        let mut codecs = vec![Codec::f32(); tape.len()];
        for e in &audit.quant {
            codecs[e.op_index] = Codec::from_entry(e);
        }
        // The root score feeds a decision threshold downstream; snapping
        // it to an int8 grid flips near-threshold decisions for zero
        // storage benefit, so the output always stays f32.
        codecs[root.index()] = Codec::f32();
        let plan = ExecutionPlan::build_inference(tape, root);
        let mut nodes = vec![NodeSlot::default(); tape.len()];
        let mut slots: Vec<_> = plan.slots().iter().filter(|s| !s.grad).collect();
        slots.sort_by_key(|s| s.start_time);
        let mut alloc = ByteAlloc::default();
        let mut mirror_extent = 0usize;
        let mut class_nodes = (0usize, 0usize, 0usize);
        let mut max_node_elems = 0usize;
        let mut max_rows = 0usize;
        for s in &slots {
            let codec = codecs[s.node];
            let len = s.span.len;
            let (rows, _) = tape.value(Var::from_index(s.node)).shape();
            max_node_elems = max_node_elems.max(len);
            max_rows = max_rows.max(rows);
            // Round every block up to a 4-byte multiple: mixed 1/2/4-byte
            // node sizes otherwise fragment the free list badly enough to
            // overshoot the f32 arena on int8/f32-interleaved graphs, while
            // uniform granularity keeps the packing elem-like (each block
            // still needs at most what its f32 twin needed).
            // A value whose liveness ends at the very next timestep is
            // handed to its consumer through the previous-output buffer:
            // no encode, no decode, no arena block at all.
            let transient = s.end_time == s.start_time + 1 && s.node != root.index();
            // Round every block up to a 4-byte multiple: mixed 1/2/4-byte
            // node sizes otherwise fragment the free list badly enough to
            // overshoot the f32 arena on int8/f32-interleaved graphs.
            let bytes = if transient { 0 } else { (len * codec.class.bytes_per_elem() + 3) & !3 };
            let offset = if bytes == 0 {
                0
            } else {
                alloc.release_before(s.start_time);
                alloc.alloc(bytes, s.end_time)
            };
            // Mirror packing: the f32 plan's element offsets scaled to
            // bytes. Shrunk blocks stay inside their f32 twin's span, so
            // disjointness is inherited and the extent never exceeds the
            // f32 arena — a guaranteed fallback when greedy best-fit hits
            // a packing anomaly on the smaller mixed sizes.
            mirror_extent = mirror_extent.max(4 * s.span.start + bytes);
            match codec.class {
                QuantClass::Int8 => class_nodes.0 += 1,
                QuantClass::F16 => class_nodes.1 += 1,
                QuantClass::F32 => class_nodes.2 += 1,
            }
            nodes[s.node] = NodeSlot { live: true, codec, offset, len, transient };
        }
        if mirror_extent < alloc.extent {
            for s in &slots {
                if !nodes[s.node].transient {
                    nodes[s.node].offset = 4 * s.span.start;
                }
            }
            alloc.extent = mirror_extent;
        }
        Ok(QuantPlan {
            nodes,
            arena_extent: alloc.extent,
            max_node_elems,
            max_rows,
            class_nodes,
            f32_arena_bytes: plan.report().arena_bytes,
        })
    }

    /// Bytes of shared-arena storage the plan needs.
    pub fn arena_bytes(&self) -> u64 {
        self.arena_extent as u64
    }

    /// Arena bytes the plain f32 inference plan needs for the same shape.
    pub fn f32_arena_bytes(&self) -> u64 {
        self.f32_arena_bytes
    }

    /// Live activation-node counts per class `(int8, f16, f32)`.
    pub fn class_nodes(&self) -> (usize, usize, usize) {
        self.class_nodes
    }
}

/// Reusable decode scratch, split out of the executor so operand reads
/// and the result buffer can be borrowed simultaneously.
#[derive(Default)]
struct QuantScratch {
    in0: Vec<f32>,
    in1: Vec<f32>,
    in2: Vec<f32>,
    out: Vec<f32>,
    /// The previously computed node's full-precision value; consumers
    /// executing at the very next timestep read it here instead of
    /// decoding the arena (and transient producers never encode at all).
    prev: Vec<f32>,
    /// Interleaved per-row layer-norm moments.
    moments: Vec<f32>,
    /// u8 transpose staging for the NT/TN integer matmul routes.
    u8t: Vec<u8>,
}

/// Executes quantised inference tapes through cached [`QuantPlan`]s with
/// zero allocations in steady state (the arena and scratch grow once per
/// shape, then replay).
#[derive(Default)]
pub struct QuantExecutor {
    plans: ShapeCache<QuantPlan>,
    arena: Vec<u8>,
    scratch: QuantScratch,
}

impl QuantExecutor {
    /// An executor with no cached plans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct graph shapes planned so far.
    pub fn plans_cached(&self) -> usize {
        self.plans.len()
    }

    /// Bytes of arena storage this executor currently owns (peak across
    /// all shapes it has replayed; decode scratch excluded by the same
    /// convention that keeps pack buffers out of the f32 budget).
    pub fn arena_capacity_bytes(&self) -> u64 {
        self.arena.len() as u64
    }

    /// Looks up (or builds) the quantised plan for this tape's shape.
    pub fn plan_for(
        &mut self,
        tape: &Tape,
        root: Var,
        store: &ParamStore,
        qstore: &QuantStore,
    ) -> Result<&QuantPlan, QuantError> {
        Self::cached_plan(&mut self.plans, tape, root, store, qstore)
    }

    /// Associated function over the `plans` field so callers can borrow
    /// the arena and scratch fields independently.
    fn cached_plan<'p>(
        plans: &'p mut ShapeCache<QuantPlan>,
        tape: &Tape,
        root: Var,
        store: &ParamStore,
        qstore: &QuantStore,
    ) -> Result<&'p QuantPlan, QuantError> {
        // Quantised plans are forward-only: the mode word is always set.
        let plan = plans.get_or_try_insert(tape, root, true, || {
            QuantPlan::build(tape, root, store, qstore.config())
        })?;
        Ok(plan)
    }

    /// Replays `tape` up to `root` through the quantised plan and writes
    /// the decoded output values (row-major) into `out`.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the element count of `root`.
    pub fn infer_into(
        &mut self,
        tape: &Tape,
        root: Var,
        store: &ParamStore,
        qstore: &QuantStore,
        out: &mut [f32],
    ) -> Result<(), QuantError> {
        let plan = Self::cached_plan(&mut self.plans, tape, root, store, qstore)?;
        grow_u8(&mut self.arena, plan.arena_extent);
        grow_f32(&mut self.scratch.in0, plan.max_node_elems);
        grow_f32(&mut self.scratch.in1, plan.max_node_elems);
        grow_f32(&mut self.scratch.in2, plan.max_node_elems);
        grow_f32(&mut self.scratch.out, plan.max_node_elems);
        grow_f32(&mut self.scratch.prev, plan.max_node_elems);
        grow_f32(&mut self.scratch.moments, 2 * plan.max_rows);
        run_quant_forward(plan, tape, store, qstore, &mut self.arena, &mut self.scratch, root);
        let (yr, yc) = tape.value(root).shape();
        assert_eq!(out.len(), yr * yc, "quant infer_into: output buffer size mismatch");
        match tape.op_at(root.index()) {
            Op::Input => out.copy_from_slice(tape.value(root).as_slice()),
            Op::Param(pid) => {
                let slice = qstore.fetch(store, *pid, &mut self.scratch.in0);
                out.copy_from_slice(slice);
            }
            _ => {
                let slot = &plan.nodes[root.index()];
                decode_slot(slot, &self.arena, &mut self.scratch.in0);
                out.copy_from_slice(&self.scratch.in0[..slot.len]);
            }
        }
        Ok(())
    }
}

fn grow_f32(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

fn grow_u8(buf: &mut Vec<u8>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0);
    }
}

/// Decodes one arena slot into `buf` (resized to the slot length).
/// f16/f32 values live in the byte arena as little-endian bytes, so
/// every class decodes with an elementwise copy — no alignment needed.
fn decode_slot(slot: &NodeSlot, arena: &[u8], buf: &mut Vec<f32>) {
    buf.resize(slot.len, 0.0);
    let (off, len) = (slot.offset, slot.len);
    match slot.codec.class {
        QuantClass::Int8 => u8_decode_slice(
            &arena[off..off + len],
            slot.codec.scale,
            slot.codec.zero_point,
            &mut buf[..len],
        ),
        QuantClass::F16 => f16_decode_slice_le(&arena[off..off + 2 * len], &mut buf[..len]),
        QuantClass::F32 => f32_decode_slice_le(&arena[off..off + 4 * len], &mut buf[..len]),
    }
}

/// Operand fetch: leaves come from the tape / quantised store, the
/// previously computed node comes straight from the previous-output
/// buffer (full precision, no decode), and everything else decodes from
/// the shared arena into `buf`.
#[allow(clippy::too_many_arguments)]
fn fetch<'a>(
    plan: &QuantPlan,
    tape: &'a Tape,
    store: &'a ParamStore,
    qstore: &'a QuantStore,
    arena: &'a [u8],
    prev: Option<(usize, &'a [f32])>,
    v: Var,
    buf: &'a mut Vec<f32>,
) -> &'a [f32] {
    if let Some((pn, pv)) = prev {
        if pn == v.index() {
            return &pv[..plan.nodes[pn].len];
        }
    }
    match tape.op_at(v.index()) {
        Op::Input => tape.value(v).as_slice(),
        Op::Param(pid) => qstore.fetch(store, *pid, buf),
        _ => {
            let slot = &plan.nodes[v.index()];
            debug_assert!(
                slot.live && !slot.transient,
                "quant fetch of an unplanned or expired transient node"
            );
            decode_slot(slot, arena, buf);
            &buf[..slot.len]
        }
    }
}

/// Raw int8 view of an operand, if (and only if) it is stored int8:
/// quantised parameters and int8-class arena nodes qualify (int8 slots
/// are contiguous raw code bytes in the shared arena). Transient nodes
/// have no codes — their consumers take the f32 route via [`fetch`].
fn fetch_u8<'a>(
    plan: &QuantPlan,
    tape: &Tape,
    qstore: &'a QuantStore,
    arena: &'a [u8],
    v: Var,
) -> Option<(&'a [u8], f32, u8)> {
    match tape.op_at(v.index()) {
        Op::Input => None,
        Op::Param(pid) => qstore.raw_u8(*pid),
        _ => {
            let slot = &plan.nodes[v.index()];
            if slot.live && !slot.transient && slot.codec.class == QuantClass::Int8 {
                Some((
                    &arena[slot.offset..slot.offset + slot.len],
                    slot.codec.scale,
                    slot.codec.zero_point,
                ))
            } else {
                None
            }
        }
    }
}

/// Encodes the computed node value into its arena slot (little-endian
/// bytes for the f16/f32 classes).
fn encode_slot(slot: &NodeSlot, src: &[f32], arena: &mut [u8]) {
    let (off, len) = (slot.offset, slot.len);
    match slot.codec.class {
        QuantClass::Int8 => {
            u8_encode_slice(
                &src[..len],
                slot.codec.scale,
                slot.codec.zero_point,
                &mut arena[off..off + len],
            );
        }
        QuantClass::F16 => f16_encode_slice_le(&src[..len], &mut arena[off..off + 2 * len]),
        QuantClass::F32 => f32_encode_slice_le(&src[..len], &mut arena[off..off + 4 * len]),
    }
}

/// Replays the forward pass through the shared arena. Every arm mirrors
/// the f32 executor's arithmetic on decoded operands — same kernels,
/// same scalar expressions — and the int8 matmul route substitutes the
/// exact integer GEMM.
#[allow(clippy::too_many_lines)]
fn run_quant_forward(
    plan: &QuantPlan,
    tape: &Tape,
    store: &ParamStore,
    qstore: &QuantStore,
    arena: &mut [u8],
    sc: &mut QuantScratch,
    root: Var,
) {
    let mut prev_node: Option<usize> = None;
    for i in 0..=root.index() {
        let slot = plan.nodes[i];
        if !slot.live || slot.len == 0 {
            continue;
        }
        let op = tape.op_at(i);
        if matches!(op, Op::Input | Op::Param(_)) {
            continue;
        }
        let (yr, yc) = tape.value(Var::from_index(i)).shape();
        let prevv: Option<(usize, &[f32])> = prev_node.map(|n| (n, sc.prev.as_slice()));
        let out = &mut sc.out;
        out.resize(slot.len, 0.0);
        let o = &mut out[..slot.len];
        match op {
            Op::Input | Op::Param(_) => unreachable!("leaves skipped above"),
            Op::Add(a, b) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                let bv = fetch(plan, tape, store, qstore, arena, prevv, *b, &mut sc.in1);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k] + bv[k];
                }
            }
            Op::Sub(a, b) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                let bv = fetch(plan, tape, store, qstore, arena, prevv, *b, &mut sc.in1);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k] - bv[k];
                }
            }
            Op::Mul(a, b) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                let bv = fetch(plan, tape, store, qstore, arena, prevv, *b, &mut sc.in1);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k] * bv[k];
                }
            }
            Op::Div(a, b) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                let bv = fetch(plan, tape, store, qstore, arena, prevv, *b, &mut sc.in1);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k] / bv[k];
                }
            }
            Op::Scale(a, k0) => {
                let k0 = *k0;
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k] * k0;
                }
            }
            Op::AddScalar(a, k0) => {
                let k0 = *k0;
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k] + k0;
                }
            }
            Op::AddRow(a, row) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                let rv = fetch(plan, tape, store, qstore, arena, prevv, *row, &mut sc.in1);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k] + rv[k % yc];
                }
            }
            Op::AddCol(a, col) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                let cv = fetch(plan, tape, store, qstore, arena, prevv, *col, &mut sc.in1);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k] + cv[k / yc];
                }
            }
            Op::MulCol(a, col) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                let cv = fetch(plan, tape, store, qstore, arena, prevv, *col, &mut sc.in1);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k] * cv[k / yc];
                }
            }
            Op::Matmul(a, b) => {
                let (_, ac) = tape.value(*a).shape();
                let qa = fetch_u8(plan, tape, qstore, arena, *a);
                let qb = fetch_u8(plan, tape, qstore, arena, *b);
                match (qa, qb) {
                    (Some((aq, sa, za)), Some((bq, sb, zb))) if ac <= MAX_U8_GEMM_DEPTH => {
                        matmul_u8_into(aq, za, bq, zb, sa * sb, o, yr, ac, yc);
                    }
                    _ => {
                        let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                        let bv = fetch(plan, tape, store, qstore, arena, prevv, *b, &mut sc.in1);
                        matmul_into(av, bv, o, yr, ac, yc);
                    }
                }
            }
            Op::MatmulNt(a, b) => {
                // C = A · Bᵀ with B `yc x ac`: transpose the int8 codes and
                // reuse the NN integer GEMM, else decode and use the f32
                // NT kernel.
                let (_, ac) = tape.value(*a).shape();
                let qa = fetch_u8(plan, tape, qstore, arena, *a);
                let qb = fetch_u8(plan, tape, qstore, arena, *b);
                match (qa, qb) {
                    (Some((aq, sa, za)), Some((bq, sb, zb))) if ac <= MAX_U8_GEMM_DEPTH => {
                        sc.u8t.resize(bq.len(), 0);
                        transpose_u8_into(bq, &mut sc.u8t, yc, ac);
                        matmul_u8_into(aq, za, &sc.u8t, zb, sa * sb, o, yr, ac, yc);
                    }
                    _ => {
                        let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                        let bv = fetch(plan, tape, store, qstore, arena, prevv, *b, &mut sc.in1);
                        matmul_nt_into(av, bv, o, yr, ac, yc);
                    }
                }
            }
            Op::MatmulTn(a, b) => {
                // C = Aᵀ · B with A `ar x yr`: transpose the int8 codes and
                // reuse the NN integer GEMM, else decode and use the f32
                // TN kernel.
                let (ar, _) = tape.value(*a).shape();
                let qa = fetch_u8(plan, tape, qstore, arena, *a);
                let qb = fetch_u8(plan, tape, qstore, arena, *b);
                match (qa, qb) {
                    (Some((aq, sa, za)), Some((bq, sb, zb))) if ar <= MAX_U8_GEMM_DEPTH => {
                        sc.u8t.resize(aq.len(), 0);
                        transpose_u8_into(aq, &mut sc.u8t, ar, yr);
                        matmul_u8_into(&sc.u8t, za, bq, zb, sa * sb, o, yr, ar, yc);
                    }
                    _ => {
                        let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                        let bv = fetch(plan, tape, store, qstore, arena, prevv, *b, &mut sc.in1);
                        matmul_tn_into(av, bv, o, ar, yr, yc);
                    }
                }
            }
            Op::Transpose(a) => {
                let (ar, ac) = tape.value(*a).shape();
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[(k % ar) * ac + k / ar];
                }
            }
            Op::SumAll(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                o[0] = av.iter().sum();
            }
            Op::MeanAll(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                o[0] = if av.is_empty() { 0.0 } else { av.iter().sum::<f32>() / av.len() as f32 };
            }
            Op::SumRows(a) => {
                let (ar, _) = tape.value(*a).shape();
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                o.fill(0.0);
                for r in 0..ar {
                    for j in 0..yc {
                        o[j] += av[r * yc + j];
                    }
                }
            }
            Op::SumCols(a) => {
                let (_, ac) = tape.value(*a).shape();
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for r in 0..yr {
                    o[r] = av[r * ac..(r + 1) * ac].iter().sum();
                }
            }
            Op::MaxCols(a) => {
                let (_, ac) = tape.value(*a).shape();
                assert!(ac > 0, "max_cols: tensor has no columns");
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for r in 0..yr {
                    o[r] =
                        av[r * ac..(r + 1) * ac].iter().copied().fold(f32::NEG_INFINITY, f32::max);
                }
            }
            Op::Softmax(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                o.copy_from_slice(av);
                softmax_rows_inplace(o, yr, yc);
            }
            Op::LogSoftmax(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                o.copy_from_slice(av);
                log_softmax_rows_inplace(o, yr, yc);
            }
            Op::Exp(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k].exp();
                }
            }
            Op::Ln(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k].ln();
                }
            }
            Op::Sqrt(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k].sqrt();
                }
            }
            Op::Relu(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k].max(0.0);
                }
            }
            Op::LeakyRelu(a, alpha) => {
                let al = *alpha;
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = if av[k] >= 0.0 { av[k] } else { al * av[k] };
                }
            }
            Op::Tanh(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = av[k].tanh();
                }
            }
            Op::Sigmoid(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = 1.0 / (1.0 + (-av[k]).exp());
                }
            }
            Op::Gelu(a) => {
                let av = fetch(plan, tape, store, qstore, arena, prevv, *a, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = hiergat_tensor::gelu_scalar(av[k]);
                }
            }
            Op::LayerNorm { x, gamma, beta, eps } => {
                let eps = *eps;
                let xs = fetch(plan, tape, store, qstore, arena, prevv, *x, &mut sc.in0);
                row_moments_into(xs, &mut sc.moments[..2 * yr], yr, yc);
                let gs = fetch(plan, tape, store, qstore, arena, prevv, *gamma, &mut sc.in1);
                let bs = fetch(plan, tape, store, qstore, arena, prevv, *beta, &mut sc.in2);
                let sb = &sc.moments;
                for (k, d) in o.iter_mut().enumerate() {
                    let r = k / yc;
                    let j = k % yc;
                    let m = sb[2 * r];
                    let inv = 1.0 / (sb[2 * r + 1] + eps).sqrt();
                    *d = (xs[k] - m) * inv * gs[j] + bs[j];
                }
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let (_, pc) = tape.value(p).shape();
                    let pv = fetch(plan, tape, store, qstore, arena, prevv, p, &mut sc.in0);
                    for r in 0..yr {
                        o[r * yc + off..r * yc + off + pc]
                            .copy_from_slice(&pv[r * pc..(r + 1) * pc]);
                    }
                    off += pc;
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let (pr, pc) = tape.value(p).shape();
                    let pv = fetch(plan, tape, store, qstore, arena, prevv, p, &mut sc.in0);
                    o[off..off + pr * pc].copy_from_slice(pv);
                    off += pr * pc;
                }
            }
            Op::SliceCols { x, start, len } => {
                let (start, len) = (*start, *len);
                let (_, ac) = tape.value(*x).shape();
                let av = fetch(plan, tape, store, qstore, arena, prevv, *x, &mut sc.in0);
                for r in 0..yr {
                    o[r * len..(r + 1) * len]
                        .copy_from_slice(&av[r * ac + start..r * ac + start + len]);
                }
            }
            Op::SliceRows { x, start, .. } => {
                let start = *start;
                let (_, ac) = tape.value(*x).shape();
                let av = fetch(plan, tape, store, qstore, arena, prevv, *x, &mut sc.in0);
                o.copy_from_slice(&av[start * ac..start * ac + yr * ac]);
            }
            Op::GatherRows { table, indices } => {
                let (_, tc) = tape.value(*table).shape();
                // Embedding tables are the largest parameters in the store;
                // decode only the gathered rows instead of the whole table.
                let gathered = match tape.op_at(table.index()) {
                    Op::Param(pid) => qstore.gather_rows_into(*pid, indices, tc, o),
                    _ => false,
                };
                if !gathered {
                    let tv = fetch(plan, tape, store, qstore, arena, prevv, *table, &mut sc.in0);
                    for (r, &idx) in indices.iter().enumerate() {
                        o[r * tc..(r + 1) * tc].copy_from_slice(&tv[idx * tc..(idx + 1) * tc]);
                    }
                }
            }
            Op::Dropout { x, mask } => {
                let ms = mask.as_slice();
                let xs = fetch(plan, tape, store, qstore, arena, prevv, *x, &mut sc.in0);
                for (k, d) in o.iter_mut().enumerate() {
                    *d = xs[k] * ms[k];
                }
            }
            Op::CrossEntropyLogits { .. }
            | Op::WeightedCrossEntropyLogits { .. }
            | Op::BceWithLogits { .. }
            | Op::MseLoss { .. } => {
                unreachable!("loss ops rejected at plan build")
            }
        }
        if !slot.transient {
            encode_slot(&slot, o, arena);
        }
        // The freshly computed value becomes the previous-output buffer:
        // a consumer at the next timestep reads it at full precision
        // instead of decoding the arena.
        std::mem::swap(&mut sc.out, &mut sc.prev);
        prev_node = Some(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;
    use hiergat_tensor::Tensor;

    /// Small fixed-weights model: `softmax(tanh(x·W + b))` with W `4x3`,
    /// b `1x3`, every value deterministic. Weight magnitudes keep the
    /// parameters and activations int8-feasible while the pre-activation
    /// matmul output lands in f16 territory under the default `[-8, 8]`
    /// input box.
    fn fixture_store() -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let w = Tensor::from_rows(&[
            vec![0.81, -0.33, 0.12],
            vec![-0.77, 0.38, -0.45],
            vec![0.69, -0.18, 0.31],
            vec![-0.94, 0.22, -0.06],
        ]);
        let b = Tensor::from_rows(&[vec![-0.13, 0.07, 0.19]]);
        let wid = store.add("fixture.w", w);
        let bid = store.add("fixture.b", b);
        (store, wid, bid)
    }

    fn record_fixture(tape: &mut Tape, store: &ParamStore, wid: ParamId, bid: ParamId) -> Var {
        let x = tape.input(Tensor::from_rows(&[vec![1.5, -2.25, 0.75, 3.0]]));
        let w = tape.param(store, wid);
        let b = tape.param(store, bid);
        let z = tape.matmul(x, w);
        let z = tape.add_row(z, b);
        let h = tape.tanh(z);
        tape.softmax(h)
    }

    #[test]
    fn golden_feasibility_table_is_pinned() {
        // Round-trip the fixed weights through the binary checkpoint codec
        // first: the pinned table below is a property of the *checkpoint*,
        // so codec regressions fail here too.
        let (store, wid, bid) = fixture_store();
        let bytes = checkpoint::to_bytes(&store);
        let store = checkpoint::from_bytes(&bytes).expect("fixture checkpoint roundtrip");
        let wid2 = store.id_of("fixture.w").expect("w id");
        let bid2 = store.id_of("fixture.b").expect("b id");
        assert_eq!((wid.index(), bid.index()), (wid2.index(), bid2.index()));

        let mut tape = Tape::new();
        let root = record_fixture(&mut tape, &store, wid, bid);
        let cfg = QuantConfig::default();
        let audit = audit_graph(&tape, root, &store, &cfg.audit_config());
        // The pinned feasibility table. Classes and zero points are exact;
        // scales are (hi - lo) / 255 in f64, compared to 1e-9.
        let expected: &[(&str, &str, f64, u8)] = &[
            ("input", "int8", 16.0 / 255.0, 128),
            ("param", "int8", 1.75 / 255.0, 137),
            ("param", "int8", 0.32 / 255.0, 104),
            ("matmul", "f16", 0.0, 0),
            ("add_row", "f16", 0.0, 0),
            ("tanh", "int8", 2.0 / 255.0, 128),
            // Softmax proves [~0.063, 1.0]; the grid is derived from the
            // zero-extended interval [0, 1].
            ("softmax", "int8", 1.0 / 255.0, 0),
        ];
        assert_eq!(audit.quant.len(), expected.len(), "table row count shifted");
        for (e, (name, class, scale, zp)) in audit.quant.iter().zip(expected) {
            assert_eq!(e.op_name, *name, "op order shifted at node {}", e.op_index);
            assert_eq!(e.class, *class, "class regressed for {name}");
            assert!(
                (e.scale - scale).abs() < 1e-9,
                "scale regressed for {name}: {} vs pinned {scale}",
                e.scale
            );
            assert_eq!(e.zero_point, *zp, "zero point regressed for {name}");
        }
    }

    #[test]
    fn quantised_forward_matches_f32_reference() {
        let (store, wid, bid) = fixture_store();
        let mut tape = Tape::new();
        let root = record_fixture(&mut tape, &store, wid, bid);
        let reference = tape.value(root).as_slice().to_vec();

        let cfg = QuantConfig::default();
        let (qstore, _) = QuantStore::build(&tape, root, &store, &cfg).expect("quantise fixture");
        let mut exec = QuantExecutor::new();
        let mut out = vec![0.0f32; reference.len()];
        exec.infer_into(&tape, root, &store, &qstore, &mut out).expect("quant infer");
        for (q, f) in out.iter().zip(&reference) {
            assert!((q - f).abs() < 0.05, "quantised output {q} drifted from f32 reference {f}");
        }
        // Softmax rows still sum to ~1 after requantisation of the output.
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 0.02, "softmax row sum {sum}");
    }

    #[test]
    fn quantised_arena_is_smaller_than_f32_plan() {
        let (store, wid, bid) = fixture_store();
        let mut tape = Tape::new();
        let root = record_fixture(&mut tape, &store, wid, bid);
        let cfg = QuantConfig::default();
        let plan = QuantPlan::build(&tape, root, &store, &cfg).expect("plan fixture");
        assert!(
            plan.arena_bytes() < plan.f32_arena_bytes(),
            "quantised arena {} must undercut the f32 arena {}",
            plan.arena_bytes(),
            plan.f32_arena_bytes()
        );
        let (i8n, _f16n, _f32n) = plan.class_nodes();
        assert!(i8n > 0, "fixture should prove at least one int8 activation");
    }

    #[test]
    fn out_of_interval_values_are_rejected_not_clamped() {
        let codec = Codec { class: QuantClass::Int8, scale: 0.01, zero_point: 128 };
        let err =
            encode_checked(&[0.5, 1.51], -1.0, 1.0, &codec, "t").expect_err("out of interval");
        assert!(
            matches!(err, QuantError::OutOfInterval { value, .. } if value == 1.51),
            "expected rejection, got {err:?}"
        );
        // NaN never satisfies the interval check.
        let err = encode_checked(&[f32::NAN], -1.0, 1.0, &codec, "t").expect_err("NaN rejected");
        assert!(matches!(err, QuantError::OutOfInterval { .. }));
        // In-interval values encode fine and land on the affine grid.
        let data = encode_checked(&[0.5], -1.0, 1.0, &codec, "t").expect("in-interval");
        let mut back = Vec::new();
        data.decode_into(&codec, &mut back);
        assert!((back[0] - 0.5).abs() <= codec.roundtrip_bound(0.5));
    }

    #[test]
    fn loss_ops_are_rejected_by_the_plan() {
        let (store, wid, bid) = fixture_store();
        let mut tape = Tape::new();
        let root = record_fixture(&mut tape, &store, wid, bid);
        let loss = tape.cross_entropy_logits(root, &[1]);
        let cfg = QuantConfig::default();
        let err = QuantPlan::build(&tape, loss, &store, &cfg).expect_err("loss op rejected");
        assert!(matches!(err, QuantError::UnsupportedOp { .. }), "got {err:?}");
    }

    #[test]
    fn plan_cache_is_reused_across_same_shape_tapes() {
        let (store, wid, bid) = fixture_store();
        let cfg = QuantConfig::default();
        let mut exec = QuantExecutor::new();
        let mut qstore = None;
        for _ in 0..3 {
            let mut tape = Tape::new();
            let root = record_fixture(&mut tape, &store, wid, bid);
            if qstore.is_none() {
                qstore = Some(QuantStore::build(&tape, root, &store, &cfg).expect("quantise").0);
            }
            let qs = qstore.as_ref().expect("built");
            let mut out = vec![0.0f32; 3];
            exec.infer_into(&tape, root, &store, qs, &mut out).expect("quant infer");
        }
        assert_eq!(exec.plans_cached(), 1, "same shape must reuse one cached plan");
    }

    #[test]
    fn store_report_accounts_for_quantised_bytes() {
        let (store, wid, bid) = fixture_store();
        let mut tape = Tape::new();
        let root = record_fixture(&mut tape, &store, wid, bid);
        let cfg = QuantConfig::default();
        let (qstore, _) = QuantStore::build(&tape, root, &store, &cfg).expect("quantise");
        let r = qstore.report();
        assert_eq!(r.int8_params + r.f16_params + r.f32_params, 2);
        assert!(r.bytes_quantised < r.bytes_f32, "{} !< {}", r.bytes_quantised, r.bytes_f32);
        assert_eq!(r.bytes_f32, 4 * (12 + 3));
    }
}
