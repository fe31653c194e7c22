//! CFG recovery and abstract interpretation over a linked image.
//!
//! The verifier works per application, on the final [`Firmware`]: entry
//! points are the app's OS-registered handlers (plus every function
//! symbol once an indirect call is seen, since a code-bounded function
//! pointer could reach any of them).  A worklist walk computes, for
//! every reachable instruction, a sound join of the abstract states on
//! all paths into it.  The fixed point then answers three questions:
//!
//! 1. **structure** — odd or out-of-image branch targets, indirect
//!    flows and dead code become typed [`Finding`]s;
//! 2. **containment** — every reachable memory-touching instruction is
//!    classified against the method's policed address set as
//!    proven-safe, proven-escape or unknown;
//! 3. **redundancy** — a compiler-inserted bound check whose compared
//!    register provably lies on the passing side of the
//!    (linker-patched) bound immediate can never branch, and is
//!    reported as a redundant-check lint finding.
//!
//! # The abstract domain
//!
//! A state is an [`Interval`] per register plus a small *abstract
//! memory*: intervals for individual 16-bit words at statically-known
//! addresses.  Tracking memory is what makes the analysis useful on
//! real compiler output — the stack-machine code generator spills
//! every local to a frame slot and threads operands through
//! `push`/`pop`, so a register-only domain sees `⊤` almost everywhere.
//! Two facts make the memory tractable:
//!
//! * the OS resets the stack pointer to a fixed, statically-known
//!   address on **every** handler dispatch, so handler-entry `SP` is a
//!   singleton and frame slots get concrete absolute addresses;
//! * a syscall's only app-visible effects are the return value in
//!   `R14` and peripheral-space writes (the services run on the host
//!   and only *read* app memory), so the tracked frame survives the
//!   syscalls that pepper real handlers.
//!
//! On top of the intervals the state keeps *equality tags*: a register
//! (or word) may be tagged as holding exactly the current value of
//! some tracked word.  Loads establish tags, any potentially-aliasing
//! write kills them, and conditional-branch refinement applies to
//! every holder of the tag — which is how a bound learned on a scratch
//! register propagates back to the loop counter's stack slot.

use crate::interval::Interval;
use crate::report::{AccessClass, AccessVerdict, AppVerification, Finding, VerifyReport};
use amulet_core::addr::AddrRange;
use amulet_core::checks::CheckSite;
use amulet_core::mpu_plan::MpuPlan;
use amulet_core::perm::Perm;
use amulet_mcu::firmware::{AppBinary, Firmware};
use amulet_mcu::isa::{AluOp, Cond, Instr, Reg, UnaryOp, Width};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Joins per program point after which still-changing registers and
/// memory words are widened straight to `⊤` (registers) or dropped
/// (words).  The limit comfortably exceeds the small constant trip
/// counts of the catalogue's counted loops, which therefore converge
/// *before* widening and keep their counters bounded — while unbounded
/// loops are cut off without losing straight-line precision.
const WIDEN_AFTER: u32 = 24;

/// The abstract machine state at one program point.
#[derive(Clone, PartialEq, Eq, Debug)]
struct State {
    /// Value interval per register.
    regs: [Interval; Reg::COUNT],
    /// `reg_tag[r] = Some(a)`: register `r` holds exactly the current
    /// value of the word at address `a`.
    reg_tag: [Option<u16>; Reg::COUNT],
    /// Interval per tracked 16-bit word, keyed by absolute address.
    /// An absent key means `⊤`.
    mem: BTreeMap<u16, Interval>,
    /// `mem_tag[k] = a`: the word at `k` holds exactly the current
    /// value of the word at `a` (a spilled copy).
    mem_tag: BTreeMap<u16, u16>,
    /// `Some((register index, immediate))` after a compare against a
    /// statically-known value, while the compared register and the
    /// flags are both still live.
    cmp: Option<(u8, u16)>,
}

impl State {
    fn top() -> Self {
        State {
            regs: [Interval::TOP; Reg::COUNT],
            reg_tag: [None; Reg::COUNT],
            mem: BTreeMap::new(),
            mem_tag: BTreeMap::new(),
            cmp: None,
        }
    }

    fn get(&self, r: Reg) -> Interval {
        self.regs[r.index()]
    }

    /// Writes a register, replacing its tag and killing any live
    /// compare on it.
    fn set(&mut self, r: Reg, v: Interval, tag: Option<u16>) {
        self.regs[r.index()] = v;
        self.reg_tag[r.index()] = tag;
        if self.cmp.is_some_and(|(cr, _)| usize::from(cr) == r.index()) {
            self.cmp = None;
        }
    }

    /// Kills all knowledge about bytes `[lo, hi]` of memory: tracked
    /// words overlapping the span, and every tag pointing at them.
    fn havoc_bytes(&mut self, lo: u32, hi: u32) {
        // A word at `a` covers bytes `[a, a + 1]`, so it overlaps the
        // span iff `a` lies in `[lo - 1, hi]`.
        let slot_lo = lo.saturating_sub(1);
        let overlaps = |a: u16| (slot_lo..=hi).contains(&u32::from(a));
        self.mem.retain(|&a, _| !overlaps(a));
        self.mem_tag
            .retain(|&k, &mut a| !overlaps(k) && !overlaps(a));
        for t in self.reg_tag.iter_mut() {
            if t.is_some_and(overlaps) {
                *t = None;
            }
        }
    }

    /// Kills all knowledge about memory.
    fn havoc_all_mem(&mut self) {
        self.mem.clear();
        self.mem_tag.clear();
        self.reg_tag = [None; Reg::COUNT];
    }

    /// Abstract store of `value` (carrying equality tag `tag`) to the
    /// byte span the access can touch.
    fn store(&mut self, target: Interval, width: Width, value: Interval, tag: Option<u16>) {
        if target.is_top() {
            self.havoc_all_mem();
            return;
        }
        self.havoc_bytes(
            u32::from(target.lo),
            u32::from(target.hi) + width.bytes() - 1,
        );
        if target.is_singleton() && width == Width::Word {
            let a = target.lo;
            if !value.is_top() {
                self.mem.insert(a, value);
            }
            if let Some(t) = tag {
                if t != a {
                    self.mem_tag.insert(a, t);
                }
            }
        }
    }

    /// Abstract load from `target`: the value interval and the
    /// equality tag the destination inherits.
    fn load(&self, target: Interval, width: Width) -> (Interval, Option<u16>) {
        if target.is_singleton() && width == Width::Word {
            let a = target.lo;
            let v = self.mem.get(&a).copied().unwrap_or(Interval::TOP);
            // Tag chains collapse at store time, so one hop suffices.
            let tag = self.mem_tag.get(&a).copied().unwrap_or(a);
            (v, Some(tag))
        } else {
            (Interval::TOP, None)
        }
    }

    /// The interval of the word every holder of tag `t` equals.
    fn tag_value(&self, t: u16) -> Interval {
        self.mem.get(&t).copied().unwrap_or(Interval::TOP)
    }

    /// Joins `other` into `self`; returns whether anything changed.
    /// After `WIDEN_AFTER` joins at the same point, changing cells are
    /// widened instead of growing step by step.
    fn join_from(&mut self, other: &State, visits: u32) -> bool {
        let widen = visits > WIDEN_AFTER;
        let mut changed = false;
        for i in 0..Reg::COUNT {
            let joined = self.regs[i].join(&other.regs[i]);
            if joined != self.regs[i] {
                self.regs[i] = if widen { Interval::TOP } else { joined };
                changed = true;
            }
            if self.reg_tag[i] != other.reg_tag[i] && self.reg_tag[i].is_some() {
                self.reg_tag[i] = None;
                changed = true;
            }
        }
        let mut dropped: Vec<u16> = Vec::new();
        for (&a, v) in self.mem.iter_mut() {
            match other.mem.get(&a) {
                Some(ov) => {
                    let joined = v.join(ov);
                    if joined != *v {
                        if widen {
                            dropped.push(a);
                        } else {
                            *v = joined;
                        }
                        changed = true;
                    }
                }
                None => {
                    dropped.push(a);
                    changed = true;
                }
            }
        }
        for a in dropped {
            self.mem.remove(&a);
        }
        let before = self.mem_tag.len();
        let other_tags = &other.mem_tag;
        self.mem_tag.retain(|k, a| other_tags.get(k) == Some(a));
        changed |= self.mem_tag.len() != before;
        if self.cmp != other.cmp && self.cmp.is_some() {
            self.cmp = None;
            changed = true;
        }
        changed
    }

    /// Applies refinement `f` to the compared register and — through
    /// the equality tags — to every other holder of the same runtime
    /// value.  Returns `None` when the refinement proves the edge
    /// infeasible.
    fn refine(&self, reg: Reg, f: impl Fn(&Interval) -> Option<Interval>) -> Option<State> {
        let mut s = self.clone();
        s.regs[reg.index()] = f(&self.get(reg))?;
        if let Some(t) = self.reg_tag[reg.index()] {
            // Every holder of tag `t` equals the runtime value the
            // branch just constrained, so the predicate applies to
            // each — and an infeasible result anywhere kills the edge.
            let refined = f(&self.tag_value(t))?;
            if refined.is_top() {
                s.mem.remove(&t);
            } else {
                s.mem.insert(t, refined);
            }
            for i in 0..Reg::COUNT {
                if i != reg.index() && self.reg_tag[i] == Some(t) {
                    s.regs[i] = f(&self.regs[i])?;
                }
            }
            for (&k, &kt) in &self.mem_tag {
                if kt == t {
                    let rv = f(&self.tag_value(k))?;
                    if rv.is_top() {
                        s.mem.remove(&k);
                    } else {
                        s.mem.insert(k, rv);
                    }
                }
            }
        }
        Some(s)
    }
}

/// The per-app address sets the isolation method polices, precomputed
/// as coalesced `[start, end)` ranges for interval classification.
struct AccessPolicy {
    readable: Vec<(u32, u32)>,
    writable: Vec<(u32, u32)>,
}

impl AccessPolicy {
    /// Builds the policy for one app: the planned MPU segments that
    /// grant the needed permission, plus — for methods that run apps
    /// on the shared OS stack — the OS stack region itself.
    ///
    /// The plan's `permission_at` is first-match-wins over segments,
    /// but every built-in plan's segments are non-overlapping, so
    /// collecting the granting segments directly is exact.
    fn for_app(firmware: &Firmware, app: &AppBinary) -> Self {
        let plan = MpuPlan::for_app_on(&firmware.memory_map, app.index)
            .expect("linked firmware always carries a plannable memory map");
        let mut readable = Vec::new();
        let mut writable = Vec::new();
        for seg in &plan.segments {
            if seg.perm.allows(Perm::R) {
                readable.push((seg.range.start, seg.range.end));
            }
            if seg.perm.allows(Perm::W) {
                writable.push((seg.range.start, seg.range.end));
            }
        }
        if !firmware.method.uses_per_app_stacks() {
            // Apps run (and push return addresses) on the shared OS
            // stack under these methods, so stack traffic there is not
            // an escape.
            let os_stack = firmware.memory_map.os_stack;
            readable.push((os_stack.start, os_stack.end));
            writable.push((os_stack.start, os_stack.end));
        }
        AccessPolicy {
            readable: coalesce(readable),
            writable: coalesce(writable),
        }
    }

    /// Classifies an access whose base address lies in `target` and
    /// touches `size` bytes: entirely inside the allowed set ⇒
    /// proven-safe, entirely outside ⇒ proven-escape, else unknown.
    fn classify(&self, target: Interval, write: bool, size: u32) -> AccessVerdict {
        let ranges = if write {
            &self.writable
        } else {
            &self.readable
        };
        // Bytes any possible access can touch.
        let lo = u32::from(target.lo);
        let hi = u32::from(target.hi) + size - 1;
        if ranges.iter().any(|&(s, e)| s <= lo && hi < e) {
            AccessVerdict::ProvenSafe
        } else if ranges.iter().all(|&(s, e)| e <= lo || hi < s) {
            AccessVerdict::ProvenEscape
        } else {
            AccessVerdict::Unknown
        }
    }
}

/// Sorts and merges overlapping or adjacent `[start, end)` ranges, so
/// a span covered by the union is covered by a single merged range.
fn coalesce(mut ranges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    ranges.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
    for (s, e) in ranges {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// The fixed point of one app's walk: joined in-states per reachable
/// instruction address, plus the structural findings gathered on the
/// way.
struct Fixpoint {
    states: BTreeMap<u32, State>,
    findings: Vec<Finding>,
    entry_points: usize,
}

/// Verifies every app of a linked firmware image.  Check-site metadata
/// (from the build report) may be supplied per app name to also decide
/// which compiler-inserted checks are provably redundant.
pub(crate) fn verify_firmware_with_sites(
    firmware: &Firmware,
    sites: &BTreeMap<String, Vec<CheckSite>>,
) -> VerifyReport {
    let mut apps = Vec::with_capacity(firmware.apps.len());
    for app in &firmware.apps {
        let empty = Vec::new();
        let app_sites = sites.get(&*app.name).unwrap_or(&empty);
        apps.push(verify_app(firmware, app, app_sites));
    }
    VerifyReport {
        platform: firmware.memory_map.platform.name.clone(),
        method: firmware.method,
        apps,
    }
}

/// Verifies a build output, using the report's check-site metadata so
/// provably-redundant checks are identified as well.
pub fn verify_build(out: &amulet_aft::aft::BuildOutput) -> VerifyReport {
    let sites: BTreeMap<String, Vec<CheckSite>> = out
        .report
        .apps
        .iter()
        .map(|a| (a.name.clone(), a.check_sites.clone()))
        .collect();
    verify_firmware_with_sites(&out.firmware, &sites)
}

fn verify_app(firmware: &Firmware, app: &AppBinary, sites: &[CheckSite]) -> AppVerification {
    let fixpoint = walk(firmware, app);

    // Dead code: instructions inside the app's code region never reached.
    let mut findings = fixpoint.findings;
    let mut dead_instrs = 0usize;
    let mut run_start: Option<(u32, u32)> = None;
    for (addr, _) in firmware
        .code
        .range(app.placement.code.start..app.placement.code.end)
    {
        if fixpoint.states.contains_key(&addr) {
            if let Some((start, n)) = run_start.take() {
                findings.push(Finding::DeadCode {
                    addr: start,
                    instrs: n,
                });
            }
        } else {
            dead_instrs += 1;
            run_start = Some(match run_start {
                Some((start, n)) => (start, n + 1),
                None => (addr, 1),
            });
        }
    }
    if let Some((start, n)) = run_start {
        findings.push(Finding::DeadCode {
            addr: start,
            instrs: n,
        });
    }
    findings.sort_by_key(finding_order);

    // Containment: classify every reachable memory access against the
    // method's policed address set.
    let policy = AccessPolicy::for_app(firmware, app);
    let mut accesses = Vec::new();
    for (&addr, state) in &fixpoint.states {
        let Some(instr) = firmware.code.get(addr) else {
            continue;
        };
        if !instr.touches_data_memory() {
            continue;
        }
        let Some((target, write, size)) = access_target(&instr, state) else {
            continue;
        };
        accesses.push(AccessClass {
            at: addr,
            instr: instr.to_string(),
            write,
            lo: target.lo,
            hi: target.hi,
            verdict: policy.classify(target, write, size),
        });
    }

    // Redundancy: a bound check whose pair provably falls through.
    let mut elidable_sites = Vec::new();
    let mut elidable_candidates = 0usize;
    for site in sites {
        if !site.kind.is_elidable() {
            continue;
        }
        elidable_candidates += 1;
        if site_is_redundant(firmware, site, &fixpoint.states) {
            elidable_sites.push(*site);
        }
    }

    AppVerification {
        app: app.name.to_string(),
        entry_points: fixpoint.entry_points,
        reachable_instrs: fixpoint.states.len(),
        dead_instrs,
        findings,
        accesses,
        elidable_sites,
        elidable_candidates,
    }
}

fn finding_order(f: &Finding) -> (u32, u32) {
    match f {
        Finding::OddTarget { at, .. } => (*at, 0),
        Finding::OutOfImage { at, .. } => (*at, 1),
        Finding::IndirectFlow { at, .. } => (*at, 2),
        Finding::DeadCode { addr, .. } => (*addr, 3),
    }
}

/// The abstract target interval of a memory-touching instruction, with
/// its direction and byte size, given the in-state.  `None` only for
/// non-memory instructions.
fn access_target(instr: &Instr, state: &State) -> Option<(Interval, bool, u32)> {
    match *instr {
        Instr::Load {
            base,
            offset,
            width,
            ..
        } => Some((
            state.get(base).add_signed(i32::from(offset)),
            false,
            width.bytes(),
        )),
        Instr::Store {
            base,
            offset,
            width,
            ..
        } => Some((
            state.get(base).add_signed(i32::from(offset)),
            true,
            width.bytes(),
        )),
        Instr::LoadAbs { addr, width, .. } => {
            Some((Interval::singleton(addr), false, width.bytes()))
        }
        Instr::StoreAbs { addr, width, .. } => {
            Some((Interval::singleton(addr), true, width.bytes()))
        }
        Instr::Push { .. } => Some((state.get(Reg::SP).add_signed(-2), true, 2)),
        Instr::Pop { .. } => Some((state.get(Reg::SP), false, 2)),
        _ => None,
    }
}

/// Whether a (linker-patched) bound-check pair provably falls through:
/// the site must be reachable, keep its `CmpImm` + unsigned-`Jcc`
/// shape, and the compared register's interval must lie entirely on
/// the passing side of the patched bound.
fn site_is_redundant(firmware: &Firmware, site: &CheckSite, states: &BTreeMap<u32, State>) -> bool {
    let Some(state) = states.get(&site.addr) else {
        return false; // unreachable sites are dead code, not redundant checks
    };
    let Some(Instr::CmpImm { a, imm }) = firmware.code.get(site.addr) else {
        return false;
    };
    let Some(Instr::Jcc { cond, .. }) = firmware.code.get(site.addr + 4) else {
        return false;
    };
    let v = state.get(a);
    match cond {
        Cond::Lo => v.lo >= imm,           // `a < bound` never holds
        Cond::Hs => imm > 0 && v.hi < imm, // `a >= bound` never holds
        _ => false,
    }
}

/// The register tested by a boolean guard at `addr`, if any.
///
/// The code generator materialises every comparison as a 0/1 value and
/// re-tests it (`cmp a, b; mov #1, d; jcc L; mov #0, d; L: cmp #0, d;
/// jeq exit`).  A plain join at `L` would merge the two arms and lose
/// the correlation between `d` and the refinement the original branch
/// established (the loop counter's bound, typically).  Nodes belonging
/// to such a guard — the `cmp #0` and its `jeq`/`jne` — therefore keep
/// their in-states *partitioned* by the guard register being exactly 0,
/// exactly 1, or anything else, so each arm's refinement survives to
/// the re-test, where the infeasible-edge logic routes it correctly.
fn guard_reg(code: &amulet_mcu::code::InstrStore, addr: u32) -> Option<u8> {
    match code.get(addr) {
        Some(Instr::CmpImm { a, imm: 0 })
            if matches!(
                code.get(addr + 4),
                Some(Instr::Jcc {
                    cond: Cond::Eq | Cond::Ne,
                    ..
                })
            ) =>
        {
            Some(a.0)
        }
        Some(Instr::Jcc {
            cond: Cond::Eq | Cond::Ne,
            ..
        }) => match addr.checked_sub(4).and_then(|p| code.get(p)) {
            Some(Instr::CmpImm { a, imm: 0 }) => Some(a.0),
            _ => None,
        },
        _ => None,
    }
}

/// The partition slot an in-state lands in at a node (see [`guard_reg`]).
/// Partitioning is sound for *any* predicate of the state: each slot
/// over-approximates a subset of the paths, and the final per-node join
/// covers them all — the split only adds precision across the guard.
fn partition(guard: Option<u8>, s: &State) -> usize {
    match guard {
        Some(r) => {
            let v = s.regs[usize::from(r)];
            if v == Interval::singleton(0) {
                0
            } else if v == Interval::singleton(1) {
                1
            } else {
                2
            }
        }
        None => 2,
    }
}

/// Runs the worklist walk for one app and returns its fixed point.
fn walk(firmware: &Firmware, app: &AppBinary) -> Fixpoint {
    let code_region = &app.placement.code;
    let code = &firmware.code;
    let peripherals = firmware.memory_map.platform.peripherals;

    // The stack the OS dispatches this app's handlers on: per-app under
    // the methods that switch stacks, the shared OS stack otherwise.
    // Dispatch writes the payload word at `sp0 - 2`, pushes the sentinel
    // return address, and enters the handler with `SP = sp0 - 4` — a
    // statically-known singleton, which is what gives frame slots
    // concrete absolute addresses.
    let sp0 = if firmware.method.uses_per_app_stacks() {
        app.initial_sp
    } else {
        firmware.os.initial_sp
    };
    let mut handler_entry = State::top();
    handler_entry.set(
        Reg::SP,
        Interval::singleton((sp0 as u16).wrapping_sub(4)),
        None,
    );

    // Roots: the OS-invocable handlers, entered with the dispatch state.
    let handler_roots: BTreeSet<u32> = app.handlers.values().copied().collect();

    // An indirect call can target any function whose address the app can
    // materialise — over-approximate with every function symbol.  Entry
    // state is unknown (the call site's stack depth is arbitrary).
    let uses_indirect_calls = code
        .range(code_region.start..code_region.end)
        .any(|(_, i)| matches!(i, Instr::CallReg { .. } | Instr::Br { .. }));
    let mut symbol_roots: BTreeSet<u32> = BTreeSet::new();
    if uses_indirect_calls {
        let prefix = format!("{}::", app.name);
        symbol_roots.extend(
            firmware
                .symbols
                .iter()
                .filter(|(name, _)| name.starts_with(&prefix))
                .map(|(_, &addr)| addr),
        );
    }

    // In-states per node, partitioned by the node's boolean guard (if
    // any) — slot 0: guard register exactly 0, slot 1: exactly 1,
    // slot 2: everything else (and all unguarded nodes).
    let mut states: BTreeMap<u32, [Option<State>; 3]> = BTreeMap::new();
    let mut visits: BTreeMap<(u32, usize), u32> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut queue: VecDeque<(u32, usize)> = VecDeque::new();

    // Pushes `state` into `target`'s partitioned in-state, queueing the
    // slot when the join changed something (or the slot is new).
    let flow = |target: u32,
                state: State,
                states: &mut BTreeMap<u32, [Option<State>; 3]>,
                visits: &mut BTreeMap<(u32, usize), u32>,
                queue: &mut VecDeque<(u32, usize)>| {
        let slot = partition(guard_reg(code, target), &state);
        let slots = states.entry(target).or_default();
        match &mut slots[slot] {
            empty @ None => {
                *empty = Some(state);
                queue.push_back((target, slot));
            }
            Some(existing) => {
                let v = visits.entry((target, slot)).or_insert(0);
                *v += 1;
                if existing.join_from(&state, *v) {
                    queue.push_back((target, slot));
                }
            }
        }
    };

    for &root in &symbol_roots {
        flow(root, State::top(), &mut states, &mut visits, &mut queue);
    }
    for &root in &handler_roots {
        flow(
            root,
            handler_entry.clone(),
            &mut states,
            &mut visits,
            &mut queue,
        );
    }
    let entry_points = states.len();

    // Validates a control-transfer target, recording a finding and
    // refusing the edge when it cannot be followed.
    let check_target = |at: u32, target: u32, findings: &mut Vec<Finding>| -> bool {
        if !target.is_multiple_of(2) {
            findings.push(Finding::OddTarget { at, target });
            return false;
        }
        if !code_region.contains(target) || !code.contains(target) {
            findings.push(Finding::OutOfImage { at, target });
            return false;
        }
        true
    };

    while let Some((addr, slot)) = queue.pop_front() {
        let Some(state) = states.get(&addr).and_then(|s| s[slot].clone()) else {
            continue;
        };
        let Some(instr) = code.get(addr) else {
            continue;
        };
        let next = addr + instr.size_bytes();

        match instr {
            Instr::Jmp { target } => {
                if check_target(addr, u32::from(target), &mut findings) {
                    flow(
                        u32::from(target),
                        state,
                        &mut states,
                        &mut visits,
                        &mut queue,
                    );
                }
            }
            Instr::Jcc { cond, target } => {
                let (taken, fall) = split_on_branch(&state, cond);
                if let Some(taken) = taken {
                    if check_target(addr, u32::from(target), &mut findings) {
                        flow(
                            u32::from(target),
                            taken,
                            &mut states,
                            &mut visits,
                            &mut queue,
                        );
                    }
                }
                if let Some(fall) = fall {
                    if check_target(addr, next, &mut findings) {
                        flow(next, fall, &mut states, &mut visits, &mut queue);
                    }
                }
            }
            Instr::Call { target } => {
                if check_target(addr, u32::from(target), &mut findings) {
                    flow(
                        u32::from(target),
                        State::top(),
                        &mut states,
                        &mut visits,
                        &mut queue,
                    );
                }
                // The callee returns with every register and every
                // tracked memory word unknown (documented imprecision:
                // calls are not analysed interprocedurally).
                if check_target(addr, next, &mut findings) {
                    flow(next, State::top(), &mut states, &mut visits, &mut queue);
                }
            }
            Instr::CallReg { .. } => {
                findings.push(Finding::IndirectFlow {
                    at: addr,
                    call: true,
                });
                // Possible targets were already seeded as roots.
                if check_target(addr, next, &mut findings) {
                    flow(next, State::top(), &mut states, &mut visits, &mut queue);
                }
            }
            Instr::Br { .. } => {
                // Only used to leave the app (handler return); targets
                // inside the app were seeded as roots.
                findings.push(Finding::IndirectFlow {
                    at: addr,
                    call: false,
                });
            }
            Instr::Ret | Instr::Halt | Instr::Fault { .. } => {}
            _ => {
                let mut out = state;
                transfer(instr, &mut out, &peripherals);
                if check_target(addr, next, &mut findings) {
                    flow(next, out, &mut states, &mut visits, &mut queue);
                }
            }
        }
    }

    // Deduplicate findings: a loop re-visits transfer instructions, and
    // each visit records its (identical) finding again.
    findings.sort_by_key(finding_order);
    findings.dedup();

    // Collapse the guard partitions: the reported per-node state is the
    // plain join of every populated slot.
    let joined = states
        .into_iter()
        .map(|(addr, slots)| {
            let mut it = slots.into_iter().flatten();
            let mut acc = it.next().expect("populated node has at least one slot");
            for s in it {
                acc.join_from(&s, 0);
            }
            (addr, acc)
        })
        .collect();

    Fixpoint {
        states: joined,
        findings,
        entry_points,
    }
}

/// The abstract transfer function for straight-line instructions.
fn transfer(instr: Instr, s: &mut State, peripherals: &AddrRange) {
    match instr {
        Instr::MovImm { dst, imm } => s.set(dst, Interval::singleton(imm), None),
        Instr::Mov { dst, src } => {
            // A register copy preserves both the interval and the
            // equality tag.
            let v = s.get(src);
            let tag = s.reg_tag[src.index()];
            s.set(dst, v, tag);
        }
        Instr::Load {
            dst,
            base,
            offset,
            width,
        } => {
            let target = s.get(base).add_signed(i32::from(offset));
            let (v, tag) = s.load(target, width);
            s.set(dst, v, tag);
        }
        Instr::LoadAbs { dst, addr, width } => {
            let (v, tag) = s.load(Interval::singleton(addr), width);
            s.set(dst, v, tag);
        }
        Instr::Store {
            src,
            base,
            offset,
            width,
        } => {
            let target = s.get(base).add_signed(i32::from(offset));
            let value = s.get(src);
            let tag = s.reg_tag[src.index()];
            s.store(target, width, value, tag);
        }
        Instr::StoreAbs { src, addr, width } => {
            let value = s.get(src);
            let tag = s.reg_tag[src.index()];
            s.store(Interval::singleton(addr), width, value, tag);
        }
        Instr::Push { src } => {
            // `SP ← SP − 2; mem[SP] ← src`.
            let new_sp = s.get(Reg::SP).add_signed(-2);
            let value = s.get(src);
            let tag = s.reg_tag[src.index()];
            s.set(Reg::SP, new_sp, None);
            s.store(new_sp, Width::Word, value, tag);
        }
        Instr::Pop { dst } => {
            // `dst ← mem[SP]; SP ← SP + 2`.
            let sp = s.get(Reg::SP);
            let (v, tag) = s.load(sp, Width::Word);
            s.set(Reg::SP, sp.add_signed(2), None);
            s.set(dst, v, tag);
        }
        Instr::Alu { op, dst, src } => {
            let v = match op {
                AluOp::Add => s.get(dst).add(&s.get(src)),
                AluOp::Sub => s.get(dst).sub(&s.get(src)),
                // `x & y` can exceed neither operand (unsigned).
                AluOp::And => Interval::new(0, s.get(dst).hi.min(s.get(src).hi)),
                // `x % y` lands in `[0, max(y)-1]` — but only when the
                // CPU's *signed* remainder cannot go negative: the
                // divisor must be provably positive and the dividend
                // provably non-negative as a signed word (a negative
                // dividend wraps to a large unsigned remainder).
                AluOp::Rem
                    if s.get(src).lo >= 1
                        && s.get(src).hi <= i16::MAX as u16
                        && s.get(dst).hi <= i16::MAX as u16 =>
                {
                    Interval::new(0, s.get(src).hi - 1)
                }
                _ => Interval::TOP,
            };
            s.set(dst, v, None);
            s.cmp = None; // ALU operations overwrite the flags
        }
        Instr::AluImm { op, dst, imm } => {
            let v = match op {
                AluOp::Add => s.get(dst).add(&Interval::singleton(imm)),
                AluOp::Sub => s.get(dst).sub(&Interval::singleton(imm)),
                // `x & imm` can never exceed `imm`.
                AluOp::And => Interval::new(0, imm),
                // `x % imm` lands in `[0, imm-1]` — but only when the
                // CPU's *signed* remainder cannot go negative: the
                // divisor must be a positive literal and the dividend
                // provably non-negative as a signed word (a negative
                // dividend wraps to a large unsigned remainder).
                AluOp::Rem
                    if (1..=i16::MAX as u16).contains(&imm) && s.get(dst).hi <= i16::MAX as u16 =>
                {
                    Interval::new(0, imm - 1)
                }
                _ => Interval::TOP,
            };
            s.set(dst, v, None);
            s.cmp = None;
        }
        Instr::Unary { op, reg } => {
            let v = match op {
                UnaryOp::Shl(k) if u32::from(k) < 16 => {
                    let iv = s.get(reg);
                    let hi = u32::from(iv.hi) << k;
                    if hi > u32::from(u16::MAX) {
                        Interval::TOP
                    } else {
                        Interval::new(iv.lo << k, hi as u16)
                    }
                }
                _ => Interval::TOP,
            };
            s.set(reg, v, None);
            s.cmp = None;
        }
        Instr::Cmp { a, b } => {
            // Register–register compares refine only when the right
            // operand is statically a single value (the flags snapshot
            // that value, even if `b` is later overwritten).
            let bv = s.get(b);
            s.cmp = bv.is_singleton().then_some((a.0, bv.lo));
        }
        Instr::CmpImm { a, imm } => s.cmp = Some((a.0, imm)),
        Instr::Syscall { .. } => {
            // The OS's only app-visible effects are the return value
            // in R14 and peripheral-space writes (MPU reconfiguration
            // during the switch); app registers and app data memory
            // are otherwise untouched — the services run on the host
            // and only *read* app memory.
            s.set(Reg::R14, Interval::TOP, None);
            if !peripherals.is_empty() {
                s.havoc_bytes(peripherals.start, peripherals.end - 1);
            }
        }
        Instr::Nop => {}
        // Control transfers are handled by the walker.
        Instr::Jmp { .. }
        | Instr::Jcc { .. }
        | Instr::Br { .. }
        | Instr::Call { .. }
        | Instr::CallReg { .. }
        | Instr::Ret
        | Instr::Halt
        | Instr::Fault { .. } => {}
    }
}

/// Splits the state over a conditional branch: `(taken, fall-through)`,
/// with `None` marking a provably-infeasible edge.  Refinement applies
/// only when the flags come from a live compare against a known value;
/// the signed conditions additionally require both sides to be provably
/// non-negative (where signed and unsigned order agree).  Every other
/// shape keeps the unrefined state on both edges.
fn split_on_branch(state: &State, cond: Cond) -> (Option<State>, Option<State>) {
    let Some((reg_idx, imm)) = state.cmp else {
        return (Some(state.clone()), Some(state.clone()));
    };
    let reg = Reg(reg_idx);
    match cond {
        Cond::Lo => (
            state.refine(reg, |v| v.below(imm)),
            state.refine(reg, |v| v.at_least(imm)),
        ),
        Cond::Hs => (
            state.refine(reg, |v| v.at_least(imm)),
            state.refine(reg, |v| v.below(imm)),
        ),
        Cond::Eq => (
            state.refine(reg, |v| v.exactly(imm)),
            state.refine(reg, |v| v.excluding(imm)),
        ),
        Cond::Ne => (
            state.refine(reg, |v| v.excluding(imm)),
            state.refine(reg, |v| v.exactly(imm)),
        ),
        // Signed compares: on provably non-negative values the signed
        // and unsigned orders coincide, so the unsigned refinements
        // apply.  (The gate is on the *compared register's* interval,
        // which bounds the runtime value every tagged holder shares.)
        Cond::Lt if state.get(reg).hi <= i16::MAX as u16 && imm <= i16::MAX as u16 => (
            state.refine(reg, |v| v.below(imm)),
            state.refine(reg, |v| v.at_least(imm)),
        ),
        Cond::Ge if state.get(reg).hi <= i16::MAX as u16 && imm <= i16::MAX as u16 => (
            state.refine(reg, |v| v.at_least(imm)),
            state.refine(reg, |v| v.below(imm)),
        ),
        // Sign-flag and out-of-range signed conditions: no refinement.
        Cond::Lt | Cond::Ge | Cond::Mi | Cond::Pl => (Some(state.clone()), Some(state.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(lo: u16, hi: u16) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn store_then_load_roundtrips_through_tracked_memory() {
        let mut s = State::top();
        s.set(Reg::SP, Interval::singleton(0x3000), None);
        s.set(Reg(4), interval(3, 9), None);
        // stw r4, -4(sp) — i.e. store at 0x2FFC.
        s.store(interval(0x2FFC, 0x2FFC), Width::Word, s.get(Reg(4)), None);
        let (v, tag) = s.load(interval(0x2FFC, 0x2FFC), Width::Word);
        assert_eq!(v, interval(3, 9));
        assert_eq!(tag, Some(0x2FFC));
    }

    #[test]
    fn overlapping_store_havocs_tracked_word_and_tags() {
        let mut s = State::top();
        s.mem.insert(0x2FFC, interval(1, 2));
        s.reg_tag[4] = Some(0x2FFC);
        s.mem_tag.insert(0x2F00, 0x2FFC);
        s.mem.insert(0x2F00, interval(1, 2));
        // A byte store at 0x2FFD overlaps the word at 0x2FFC.
        s.store(interval(0x2FFD, 0x2FFD), Width::Byte, Interval::TOP, None);
        assert!(!s.mem.contains_key(&0x2FFC));
        assert_eq!(s.reg_tag[4], None);
        assert!(!s.mem_tag.contains_key(&0x2F00));
        // The copy's own value interval survives — only the equality
        // link to the overwritten word is severed.
        assert!(s.mem.contains_key(&0x2F00));
    }

    #[test]
    fn branch_refinement_propagates_to_tagged_slot() {
        let mut s = State::top();
        // r14 was loaded from slot 0x2FFA (value unknown).
        s.reg_tag[14] = Some(0x2FFA);
        s.cmp = Some((14, 8));
        let (taken, fall) = split_on_branch(&s, Cond::Lo);
        let taken = taken.expect("taken edge feasible");
        assert_eq!(taken.regs[14], interval(0, 7));
        assert_eq!(taken.mem.get(&0x2FFA), Some(&interval(0, 7)));
        let fall = fall.expect("fall edge feasible");
        assert_eq!(fall.regs[14], interval(8, u16::MAX));
        assert_eq!(fall.mem.get(&0x2FFA), Some(&interval(8, u16::MAX)));
    }

    #[test]
    fn infeasible_edge_detected_through_tag() {
        let mut s = State::top();
        s.regs[3] = Interval::singleton(5);
        s.reg_tag[3] = Some(0x2FF0);
        s.mem.insert(0x2FF0, interval(0, 4));
        s.cmp = Some((3, 5));
        // `jhs` taken edge needs r3 ≥ 5 — fine for the register, but
        // the tagged slot says the shared value is < 5 ⇒ contradiction
        // is NOT flagged here (r3's own interval admits 5; the slot
        // refinement at_least(5) on [0,4] is infeasible).
        let (taken, _) = split_on_branch(&s, Cond::Hs);
        assert!(taken.is_none());
    }

    #[test]
    fn syscall_clobbers_only_r14_and_peripheral_words() {
        let mut s = State::top();
        s.set(Reg(4), Interval::singleton(7), None);
        s.set(Reg::R14, Interval::singleton(1), None);
        s.mem.insert(0x2FFC, Interval::singleton(9));
        s.mem.insert(0x0040, Interval::singleton(3)); // peripheral word
        let peripherals = AddrRange {
            start: 0,
            end: 0x1000,
        };
        transfer(Instr::Syscall { num: 1 }, &mut s, &peripherals);
        assert_eq!(s.get(Reg(4)), Interval::singleton(7));
        assert!(s.get(Reg::R14).is_top());
        assert_eq!(s.mem.get(&0x2FFC), Some(&Interval::singleton(9)));
        assert!(!s.mem.contains_key(&0x0040));
    }

    #[test]
    fn widening_drops_changing_memory_words() {
        let mut a = State::top();
        a.mem.insert(0x2FFC, interval(0, 3));
        let mut b = State::top();
        b.mem.insert(0x2FFC, interval(0, 4));
        assert!(a.join_from(&b, WIDEN_AFTER + 1));
        assert!(!a.mem.contains_key(&0x2FFC));
    }
}
