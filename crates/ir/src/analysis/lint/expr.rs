//! Symbolic address expressions for the lint passes.
//!
//! Values are abstracted as multivariate polynomials over *atoms*: opaque
//! value units such as `local_id.0`, a `ReadParam` result, the quotient of
//! another expression by a constant power of two, or a fresh unknown. The
//! domain is exact for the address arithmetic GPU kernels actually use —
//! `base + 4*id`, linearized multi-dim ids, ping-pong region constants,
//! `id >> 1` / `id & 1` pair decompositions — and degrades to fresh opaque
//! atoms for anything else (loads, float math, data-dependent bit tricks).
//!
//! Two facts drive the race prover:
//!
//! * every atom carries a numeric interval (`[lo, hi]` in `i128`), seeded
//!   from launch assumptions and loop range pre-analysis, so polynomial
//!   ranges can be evaluated numerically;
//! * lane-dependent atoms (those that can differ between two work-items of
//!   one group) are distinguished from group-uniform ones, so a
//!   polynomial splits into a lane part and a uniform part.
//!
//! Arithmetic is ideal-integer (no wrapping): the prover only draws
//! conclusions about byte addresses, which fit comfortably in `i128`. A
//! kernel that relies on address wraparound is outside the domain.

use crate::fxhash::FxHashMap;
use crate::inst::{Builtin, Dim};
use std::cmp::Ordering;

/// Interned atom identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(pub u32);

/// What an atom stands for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomKind {
    /// `local_id.d` — the canonical per-lane variables.
    LocalId(u8),
    /// `group_id.d` — uniform within a work-group.
    GroupId(u8),
    /// `local_size.d` (only when not pinned by assumptions).
    LocalSize(u8),
    /// `num_groups.d`.
    NumGroups(u8),
    /// The value read from parameter `index` (buffer base or scalar).
    Param(usize),
    /// `floor(arg / 2^shift)` of an interned argument polynomial.
    Quot {
        /// Interned canonical form of the argument.
        arg: Box<Poly>,
        /// The power-of-two shift.
        shift: u8,
    },
    /// `arg mod 2^shift`.
    Rem {
        /// Interned canonical form of the argument.
        arg: Box<Poly>,
        /// The power-of-two shift.
        shift: u8,
    },
    /// Anything the domain cannot track; `id` makes each distinct.
    Opaque {
        /// Fresh identity.
        id: u32,
    },
}

/// Side data for one atom.
#[derive(Debug, Clone)]
pub struct AtomInfo {
    /// What the atom stands for.
    pub kind: AtomKind,
    /// `true` if the value may differ between work-items of one group.
    pub lane: bool,
    /// Numeric range (inclusive).
    pub lo: i128,
    /// Numeric range (inclusive).
    pub hi: i128,
}

/// Atom interning table.
#[derive(Debug, Default)]
pub struct Atoms {
    infos: Vec<AtomInfo>,
    by_kind: FxHashMap<AtomKind, AtomId>,
    next_opaque: u32,
}

/// "Unbounded" sentinel magnitude (beyond any 32-bit address math).
pub const BIG: i128 = 1 << 40;

impl Atoms {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a (non-opaque) atom kind; range is set on first creation.
    pub fn intern(&mut self, kind: AtomKind, lane: bool, lo: i128, hi: i128) -> AtomId {
        if let Some(&id) = self.by_kind.get(&kind) {
            return id;
        }
        let id = AtomId(self.infos.len() as u32);
        self.infos.push(AtomInfo {
            kind: kind.clone(),
            lane,
            lo,
            hi,
        });
        self.by_kind.insert(kind, id);
        id
    }

    /// Creates a fresh opaque atom.
    pub fn fresh_opaque(&mut self, lane: bool, lo: i128, hi: i128) -> AtomId {
        let kind = AtomKind::Opaque {
            id: self.next_opaque,
        };
        self.next_opaque += 1;
        let id = AtomId(self.infos.len() as u32);
        self.infos.push(AtomInfo { kind, lane, lo, hi });
        id
    }

    /// Looks up an atom.
    pub fn info(&self, id: AtomId) -> &AtomInfo {
        &self.infos[id.0 as usize]
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// `true` if no atoms have been interned.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Narrows the stored numeric range of `id`.
    pub fn narrow(&mut self, id: AtomId, lo: i128, hi: i128) {
        let a = &mut self.infos[id.0 as usize];
        a.lo = a.lo.max(lo);
        a.hi = a.hi.min(hi);
    }
}

/// Maximum monomial degree before collapsing to opaque.
const MAX_DEGREE: usize = 4;
/// Maximum number of terms before collapsing to opaque.
const MAX_TERMS: usize = 24;
/// Atom slots of a [`Monomial`]: the product of two monomials of degree
/// [`MAX_DEGREE`] fits, so [`Poly::mul`] can form it before rejecting it.
const MONO_SLOTS: usize = 2 * MAX_DEGREE;

/// A product of atoms (sorted, with multiplicity), held inline. Empty =
/// the unit. It compares, orders and hashes as its atom slice, so terms
/// sort exactly as `Vec<AtomId>` keys would.
#[derive(Clone, Copy)]
pub struct Monomial {
    len: u8,
    slots: [AtomId; MONO_SLOTS],
}

impl Monomial {
    /// The unit monomial.
    pub const ONE: Monomial = Monomial {
        len: 0,
        slots: [AtomId(0); MONO_SLOTS],
    };

    /// The monomial of one atom.
    pub fn of(a: AtomId) -> Self {
        let mut m = Monomial::ONE;
        m.push(a);
        m
    }

    /// Appends an atom; the caller keeps the atoms sorted.
    ///
    /// # Panics
    ///
    /// If all [`MONO_SLOTS`] slots are taken.
    pub fn push(&mut self, a: AtomId) {
        self.slots[self.len as usize] = a;
        self.len += 1;
    }

    /// Removes the atom at `i`.
    pub fn remove(&mut self, i: usize) {
        self.slots.copy_within(i + 1..self.len as usize, i);
        self.len -= 1;
    }

    /// Empties the monomial.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The sorted product of two monomials; `None` if it has more than
    /// [`MONO_SLOTS`] atoms.
    fn product(&self, o: &Monomial) -> Option<Monomial> {
        if self.len() + o.len() > MONO_SLOTS {
            return None;
        }
        let mut m = Monomial::ONE;
        let (mut a, mut b) = (self.iter().peekable(), o.iter().peekable());
        while let Some(&x) = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y < x => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        } {
            m.push(x);
        }
        Some(m)
    }
}

impl std::ops::Deref for Monomial {
    type Target = [AtomId];
    fn deref(&self) -> &[AtomId] {
        &self.slots[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Monomial {
    type Item = &'a AtomId;
    type IntoIter = std::slice::Iter<'a, AtomId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Monomial {
    fn eq(&self, o: &Self) -> bool {
        **self == **o
    }
}

impl Eq for Monomial {}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for Monomial {
    fn cmp(&self, o: &Self) -> Ordering {
        (**self).cmp(&**o)
    }
}

impl std::hash::Hash for Monomial {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        (**self).hash(h)
    }
}

impl std::fmt::Debug for Monomial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A multivariate polynomial over atoms with integer coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    /// (monomial, coefficient) pairs in increasing monomial order, no
    /// monomial twice and no zero coefficient.
    terms: Vec<(Monomial, i64)>,
    /// Constant term.
    pub k: i64,
}

impl Poly {
    /// The constant polynomial.
    pub fn constant(k: i64) -> Self {
        Poly {
            terms: Vec::new(),
            k,
        }
    }

    /// A single atom.
    pub fn atom(a: AtomId) -> Self {
        Poly {
            terms: vec![(Monomial::of(a), 1)],
            k: 0,
        }
    }

    /// The non-constant terms, in increasing monomial order.
    pub fn terms(&self) -> &[(Monomial, i64)] {
        &self.terms
    }

    /// Every atom of every term, in term order (an atom repeats as often
    /// as it occurs).
    pub fn atom_ids(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.terms.iter().flat_map(|(m, _)| m.iter().copied())
    }

    /// Adds `c·m` (saturating), dropping the term if it cancels.
    pub fn add_term(&mut self, m: Monomial, c: i64) {
        match self.terms.binary_search_by(|(t, _)| t.cmp(&m)) {
            Ok(i) => {
                let e = &mut self.terms[i].1;
                *e = e.saturating_add(c);
                if *e == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) if c != 0 => self.terms.insert(i, (m, c)),
            Err(_) => {}
        }
    }

    /// Removes the term of `m`, returning its coefficient.
    pub fn remove_term(&mut self, m: &Monomial) -> Option<i64> {
        let i = self.terms.binary_search_by(|(t, _)| t.cmp(m)).ok()?;
        Some(self.terms.remove(i).1)
    }

    /// `Some(k)` if the polynomial is a constant.
    pub fn as_const(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.k)
        } else {
            None
        }
    }

    /// `Some(atom)` if the polynomial is exactly one atom (coefficient 1,
    /// no constant).
    pub fn as_single_atom(&self) -> Option<AtomId> {
        match self.terms[..] {
            [(m, 1)] if self.k == 0 && m.len() == 1 => Some(m[0]),
            _ => None,
        }
    }

    /// True if too large to keep exact.
    fn oversized(&self) -> bool {
        self.terms.len() > MAX_TERMS || self.terms.iter().any(|(m, _)| m.len() > MAX_DEGREE)
    }

    /// The monomials of either polynomial in increasing order, each with
    /// its coefficient in `self` and in `o` (0 where absent).
    pub fn union_terms<'a>(
        &'a self,
        o: &'a Poly,
    ) -> impl Iterator<Item = (Monomial, i64, i64)> + 'a {
        let (a, b) = (&self.terms, &o.terms);
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || {
            let ord = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.0.cmp(&y.0),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => return None,
            };
            Some(match ord {
                Ordering::Less => {
                    i += 1;
                    (a[i - 1].0, a[i - 1].1, 0)
                }
                Ordering::Greater => {
                    j += 1;
                    (b[j - 1].0, 0, b[j - 1].1)
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (a[i - 1].0, a[i - 1].1, b[j - 1].1)
                }
            })
        })
    }

    /// `f(self's coefficient, o's)` term by term, zeros dropped.
    fn merge(&self, o: &Poly, k: i64, f: impl Fn(i64, i64) -> i64) -> Poly {
        let terms = self
            .union_terms(o)
            .map(|(m, a, b)| (m, f(a, b)))
            .filter(|&(_, c)| c != 0)
            .collect();
        Poly { terms, k }
    }

    /// Adds two polynomials.
    pub fn add(&self, o: &Poly) -> Poly {
        self.merge(o, self.k.saturating_add(o.k), i64::saturating_add)
    }

    /// Negates.
    pub fn neg(&self) -> Poly {
        let mut r = self.clone();
        r.k = r.k.wrapping_neg();
        for (_, c) in &mut r.terms {
            *c = c.wrapping_neg();
        }
        r
    }

    /// Subtracts: `self + (−o)`, with the same wrapping negation as
    /// [`Poly::neg`].
    pub fn sub(&self, o: &Poly) -> Poly {
        let k = self.k.saturating_add(o.k.wrapping_neg());
        self.merge(o, k, |a, b| a.saturating_add(b.wrapping_neg()))
    }

    /// Multiplies by an integer.
    pub fn scale(&self, s: i64) -> Poly {
        if s == 0 {
            return Poly::constant(0);
        }
        let mut r = self.clone();
        r.k = r.k.saturating_mul(s);
        for (_, c) in &mut r.terms {
            *c = c.saturating_mul(s);
        }
        r
    }

    /// Multiplies two polynomials; `None` if the result exceeds the degree
    /// or size caps (caller falls back to an opaque atom).
    pub fn mul(&self, o: &Poly) -> Option<Poly> {
        // Every partial product, in the order a term-at-a-time
        // accumulation meets them. The stable sort keeps that order within
        // each monomial, so the saturating sums below come out the same.
        let mut parts = Vec::new();
        if o.k != 0 {
            parts.extend(self.terms.iter().map(|&(m, c)| (m, c.saturating_mul(o.k))));
        }
        if self.k != 0 {
            parts.extend(o.terms.iter().map(|&(m, c)| (m, c.saturating_mul(self.k))));
        }
        for (ma, ca) in &self.terms {
            for (mb, cb) in &o.terms {
                parts.push((ma.product(mb)?, ca.saturating_mul(*cb)));
            }
        }
        parts.sort_by_key(|&(m, _)| m);
        let mut r = Poly::constant(self.k.saturating_mul(o.k));
        for (m, c) in parts {
            match r.terms.last_mut() {
                Some((last, e)) if *last == m => *e = e.saturating_add(c),
                _ => r.terms.push((m, c)),
            }
        }
        r.terms.retain(|&(_, c)| c != 0);
        if r.oversized() {
            None
        } else {
            Some(r)
        }
    }

    /// True if any monomial contains a lane atom.
    pub fn has_lane(&self, atoms: &Atoms) -> bool {
        self.atom_ids().any(|a| atoms.info(a).lane)
    }

    /// Splits into (lane-dependent part, uniform part incl. constant).
    pub fn split_lane(&self, atoms: &Atoms) -> (Poly, Poly) {
        let mut lane = Poly::constant(0);
        let mut unif = Poly::constant(self.k);
        for (m, c) in &self.terms {
            let target = if m.iter().any(|&a| atoms.info(a).lane) {
                &mut lane
            } else {
                &mut unif
            };
            target.terms.push((*m, *c));
        }
        (lane, unif)
    }

    /// Numeric interval of the polynomial from atom ranges. Saturates at
    /// `±BIG²`-ish magnitudes; callers treat anything ≥ [`BIG`] as unknown.
    pub fn eval_range(&self, atoms: &Atoms) -> (i128, i128) {
        let mut lo = self.k as i128;
        let mut hi = self.k as i128;
        for &(m, c) in &self.terms {
            // Interval product over the monomial's atoms.
            let (mut mlo, mut mhi) = (1i128, 1i128);
            for &a in &m {
                let i = atoms.info(a);
                let cands = [
                    mlo.saturating_mul(i.lo),
                    mlo.saturating_mul(i.hi),
                    mhi.saturating_mul(i.lo),
                    mhi.saturating_mul(i.hi),
                ];
                mlo = *cands.iter().min().unwrap();
                mhi = *cands.iter().max().unwrap();
            }
            let c = c as i128;
            let cands = [mlo.saturating_mul(c), mhi.saturating_mul(c)];
            lo = lo.saturating_add(*cands.iter().min().unwrap());
            hi = hi.saturating_add(*cands.iter().max().unwrap());
        }
        (lo, hi)
    }

    /// Renders for diagnostics.
    pub fn render(&self, atoms: &Atoms) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (m, c) in &self.terms {
            if !s.is_empty() {
                s.push_str(" + ");
            }
            if *c != 1 || m.is_empty() {
                let _ = write!(s, "{c}");
                if !m.is_empty() {
                    s.push('*');
                }
            }
            let names: Vec<String> = m.iter().map(|&a| render_atom(atoms, a)).collect();
            s.push_str(&names.join("*"));
        }
        if self.k != 0 || s.is_empty() {
            if !s.is_empty() {
                let _ = write!(s, " + {}", self.k);
            } else {
                let _ = write!(s, "{}", self.k);
            }
        }
        s
    }
}

fn render_atom(atoms: &Atoms, a: AtomId) -> String {
    match &atoms.info(a).kind {
        AtomKind::LocalId(d) => format!("lid{d}"),
        AtomKind::GroupId(d) => format!("grp{d}"),
        AtomKind::LocalSize(d) => format!("ls{d}"),
        AtomKind::NumGroups(d) => format!("ng{d}"),
        AtomKind::Param(i) => format!("param{i}"),
        AtomKind::Quot { arg, shift } => format!("({} >> {shift})", arg.render(atoms)),
        AtomKind::Rem { arg, shift } => {
            format!("({} & {})", arg.render(atoms), (1u64 << shift) - 1)
        }
        AtomKind::Opaque { id } => format!("unk{id}"),
    }
}

/// Launch-shape assumptions the linter may exploit (all optional).
///
/// The suite's CLI passes each benchmark's actual launch geometry, which
/// makes most bounds numeric; without assumptions the analysis falls back
/// to symbolic size atoms and proves less.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintAssumptions {
    /// Work-group size per dimension, if known.
    pub local_size: [Option<u32>; 3],
    /// Wavefront width (defaults to 64 when zero).
    pub wavefront: u32,
}

impl LintAssumptions {
    /// Assume a 1-D launch with the given work-group size.
    pub fn one_dim(local: u32) -> Self {
        LintAssumptions {
            local_size: [Some(local), Some(1), Some(1)],
            wavefront: 64,
        }
    }

    /// Effective wavefront width.
    pub fn wave(&self) -> u32 {
        if self.wavefront == 0 {
            64
        } else {
            self.wavefront
        }
    }
}

/// Builds the polynomial for a builtin read.
pub fn builtin_poly(atoms: &mut Atoms, b: Builtin, asm: &LintAssumptions) -> Poly {
    match b {
        Builtin::LocalId(Dim(d)) => {
            let hi = match asm.local_size[d as usize] {
                Some(n) => n.saturating_sub(1) as i128,
                None => BIG,
            };
            if hi == 0 {
                // Degenerate dimension: the id is always zero.
                return Poly::constant(0);
            }
            Poly::atom(atoms.intern(AtomKind::LocalId(d), true, 0, hi))
        }
        Builtin::LocalSize(Dim(d)) => match asm.local_size[d as usize] {
            Some(n) => Poly::constant(n as i64),
            None => Poly::atom(atoms.intern(AtomKind::LocalSize(d), false, 1, BIG)),
        },
        Builtin::GroupId(Dim(d)) => Poly::atom(atoms.intern(AtomKind::GroupId(d), false, 0, BIG)),
        Builtin::NumGroups(Dim(d)) => {
            Poly::atom(atoms.intern(AtomKind::NumGroups(d), false, 1, BIG))
        }
        Builtin::GlobalId(Dim(d)) => {
            // gid_d = grp_d * ls_d + lid_d: keeps the group/lane split
            // visible to the prover.
            let grp = builtin_poly(atoms, Builtin::GroupId(Dim(d)), asm);
            let ls = builtin_poly(atoms, Builtin::LocalSize(Dim(d)), asm);
            let lid = builtin_poly(atoms, Builtin::LocalId(Dim(d)), asm);
            match grp.mul(&ls) {
                Some(b) => b.add(&lid),
                None => lid,
            }
        }
        Builtin::GlobalSize(Dim(d)) => {
            let ng = builtin_poly(atoms, Builtin::NumGroups(Dim(d)), asm);
            let ls = builtin_poly(atoms, Builtin::LocalSize(Dim(d)), asm);
            ng.mul(&ls)
                .unwrap_or_else(|| Poly::atom(atoms.fresh_opaque(false, 1, BIG)))
        }
    }
}

/// `floor(p / 2^shift)` as a polynomial: exact for constants and for
/// polynomials whose every coefficient (and constant) is divisible by the
/// power; otherwise an interned `Quot` atom.
pub fn shr_poly(atoms: &mut Atoms, p: &Poly, shift: u8) -> Poly {
    let d = 1i64 << shift;
    if let Some(k) = p.as_const() {
        if k >= 0 {
            return Poly::constant(k >> shift);
        }
    }
    // Division distributes only when every coefficient (and the constant)
    // is a nonnegative multiple of the divisor: each term's quotient is
    // then exact and floor of the sum equals the sum of floors.
    if p.k >= 0 && p.k % d == 0 && p.terms.iter().all(|&(_, c)| c >= 0 && c % d == 0) {
        let mut r = p.clone();
        r.k /= d;
        for (_, c) in &mut r.terms {
            *c /= d;
        }
        return r;
    }
    let (plo, phi) = p.eval_range(atoms);
    let lo = if plo <= 0 { 0 } else { plo >> shift };
    let hi = if phi >= BIG { BIG } else { phi >> shift };
    let lane = p.has_lane(atoms);
    if lo == hi {
        return Poly::constant(lo as i64);
    }
    Poly::atom(atoms.intern(
        AtomKind::Quot {
            arg: Box::new(p.clone()),
            shift,
        },
        lane,
        lo,
        hi,
    ))
}

/// `p mod 2^shift` (i.e. `p & (2^shift - 1)`).
pub fn rem_poly(atoms: &mut Atoms, p: &Poly, shift: u8) -> Poly {
    let d = 1i64 << shift;
    if let Some(k) = p.as_const() {
        if k >= 0 {
            return Poly::constant(k & (d - 1));
        }
    }
    let (plo, phi) = p.eval_range(atoms);
    if plo >= 0 && phi < d as i128 {
        // Already smaller than the modulus.
        return p.clone();
    }
    let lane = p.has_lane(atoms);
    let hi = (d - 1) as i128;
    Poly::atom(atoms.intern(
        AtomKind::Rem {
            arg: Box::new(p.clone()),
            shift,
        },
        lane,
        0,
        hi,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_basics() {
        let mut at = Atoms::new();
        let asm = LintAssumptions::one_dim(64);
        let lid = builtin_poly(&mut at, Builtin::LocalId(Dim(0)), &asm);
        let four = Poly::constant(4);
        let addr = lid.mul(&four).unwrap().add(&Poly::constant(8));
        let (lo, hi) = addr.eval_range(&at);
        assert_eq!((lo, hi), (8, 8 + 63 * 4));
        assert!(addr.has_lane(&at));
    }

    #[test]
    fn quot_rem_pair_shares_arg() {
        let mut at = Atoms::new();
        let asm = LintAssumptions::one_dim(64);
        let lid = builtin_poly(&mut at, Builtin::LocalId(Dim(0)), &asm);
        let q1 = shr_poly(&mut at, &lid, 1);
        let q2 = shr_poly(&mut at, &lid, 1);
        assert_eq!(q1, q2, "quotient atoms are interned");
        let r = rem_poly(&mut at, &lid, 1);
        let (rlo, rhi) = r.eval_range(&at);
        assert_eq!((rlo, rhi), (0, 1));
        let (qlo, qhi) = q1.eval_range(&at);
        assert_eq!((qlo, qhi), (0, 31));
    }

    #[test]
    fn degenerate_dims_collapse_to_zero() {
        let mut at = Atoms::new();
        let asm = LintAssumptions::one_dim(64);
        let lid1 = builtin_poly(&mut at, Builtin::LocalId(Dim(1)), &asm);
        assert_eq!(lid1.as_const(), Some(0));
    }

    #[test]
    fn gid_splits_group_and_lane() {
        let mut at = Atoms::new();
        let asm = LintAssumptions::one_dim(128);
        let gid = builtin_poly(&mut at, Builtin::GlobalId(Dim(0)), &asm);
        let (lane, unif) = gid.split_lane(&at);
        assert!(!lane.terms().is_empty());
        assert!(!unif.terms().is_empty());
    }

    #[test]
    fn shr_distributes_over_even_polys() {
        let mut at = Atoms::new();
        let asm = LintAssumptions::one_dim(64);
        let lid = builtin_poly(&mut at, Builtin::LocalId(Dim(0)), &asm);
        let even = lid.scale(8).add(&Poly::constant(16));
        let half = shr_poly(&mut at, &even, 1);
        assert_eq!(half, lid.scale(4).add(&Poly::constant(8)));
    }
}
