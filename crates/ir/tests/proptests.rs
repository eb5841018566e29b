//! Property-based tests over the IR: builder output always validates,
//! analyses are stable under structural composition, and displays are
//! total.

// The dense register tables are checked against std's hash collections as
// reference models; that is the one use of them here.
#![allow(clippy::disallowed_types)]

use proptest::prelude::*;
use rmt_ir::analysis::{instruction_mix, register_pressure, uniform_regs};
use rmt_ir::{validate, Kernel, KernelBuilder, Reg, RegMap, RegSet};
use std::collections::{HashMap, HashSet};

/// A tiny structured program generator: sequences of ALU steps with
/// optional nesting in `if`/`while`.
#[derive(Debug, Clone)]
enum Node {
    Alu(u8, usize, usize),
    Store(usize),
    If(Vec<Node>),
    Loop(u8, Vec<Node>),
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = prop_oneof![
        (any::<u8>(), 0..6usize, 0..6usize).prop_map(|(o, a, b)| Node::Alu(o, a, b)),
        (0..6usize).prop_map(Node::Store),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Node::If),
            (1u8..4, proptest::collection::vec(inner, 1..4))
                .prop_map(|(n, body)| Node::Loop(n, body)),
        ]
    })
}

fn emit(b: &mut KernelBuilder, pool: &mut Vec<Reg>, out_buf: Reg, node: &Node) {
    let pick = |pool: &[Reg], i: usize| pool[i % pool.len()];
    match node {
        Node::Alu(op, x, y) => {
            let a = pick(pool, *x);
            let c = pick(pool, *y);
            let r = match op % 5 {
                0 => b.add_u32(a, c),
                1 => b.sub_u32(a, c),
                2 => b.mul_u32(a, c),
                3 => b.xor_u32(a, c),
                _ => b.min_u32(a, c),
            };
            pool.push(r);
        }
        Node::Store(x) => {
            let gid = pool[0];
            let v = pick(pool, *x);
            let a = b.elem_addr(out_buf, gid);
            b.store_global(a, v);
        }
        Node::If(body) => {
            let a = pick(pool, 1);
            let c = pick(pool, 2);
            let cond = b.lt_u32(a, c);
            // Values defined inside must not leak: snapshot the pool.
            let snapshot = pool.len();
            b.if_(cond, |b| {
                for n in body {
                    emit(b, pool, out_buf, n);
                }
            });
            pool.truncate(snapshot);
        }
        Node::Loop(trips, body) => {
            let zero = b.const_u32(0);
            let n = b.const_u32(*trips as u32);
            let snapshot = pool.len();
            b.for_range(zero, n, |b, i| {
                pool.push(i);
                for nd in body {
                    emit(b, pool, out_buf, nd);
                }
            });
            pool.truncate(snapshot);
        }
    }
}

fn build(nodes: &[Node]) -> Kernel {
    let mut b = KernelBuilder::new("gen");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let c1 = b.const_u32(3);
    let c2 = b.const_u32(0x85EB_CA6B);
    let mut pool = vec![gid, c1, c2];
    for n in nodes {
        emit(&mut b, &mut pool, out, n);
    }
    let last = *pool.last().expect("nonempty");
    let a = b.elem_addr(out, gid);
    b.store_global(a, last);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn builder_output_always_validates(nodes in proptest::collection::vec(node_strategy(), 1..10)) {
        let k = build(&nodes);
        prop_assert_eq!(validate(&k), Ok(()));
    }

    #[test]
    fn pretty_printer_is_total(nodes in proptest::collection::vec(node_strategy(), 1..10)) {
        let k = build(&nodes);
        let listing = k.to_string();
        prop_assert!(listing.starts_with("kernel gen("));
        prop_assert!(listing.lines().count() >= k.body.len());
    }

    #[test]
    fn pressure_is_positive_and_bounded(nodes in proptest::collection::vec(node_strategy(), 1..10)) {
        let k = build(&nodes);
        let p = register_pressure(&k);
        prop_assert!(p >= 1, "a kernel with defs has pressure");
        prop_assert!(p <= k.next_reg, "pressure cannot exceed defined registers");
    }

    #[test]
    fn mix_total_matches_inst_count(nodes in proptest::collection::vec(node_strategy(), 1..10)) {
        let k = build(&nodes);
        prop_assert_eq!(instruction_mix(&k).total(), k.total_insts());
    }

    #[test]
    fn uniform_set_never_contains_global_id(nodes in proptest::collection::vec(node_strategy(), 1..10)) {
        let k = build(&nodes);
        let u = uniform_regs(&k);
        // Reg 1 is the first ReadParam dst... the builder's first fresh reg
        // is the param, second is global_id; find it structurally instead.
        let mut gid = None;
        k.visit_insts(&mut |i| {
            if let rmt_ir::Inst::ReadBuiltin { dst, builtin } = i {
                if matches!(builtin, rmt_ir::Builtin::GlobalId(_)) && gid.is_none() {
                    gid = Some(*dst);
                }
            }
        });
        prop_assert!(!u.contains(gid.expect("kernel reads gid")));
    }

    #[test]
    fn regset_agrees_with_a_hash_set_model(
        cap in 0u32..200,
        ops in proptest::collection::vec((0u8..3, 0u32..300), 0..80),
    ) {
        // Registers up to 300 against a capacity below 200: inserts past
        // the capacity must grow the set, probes past it read as absent.
        let mut set = RegSet::with_capacity(cap);
        let mut model: HashSet<Reg> = HashSet::new();
        for (op, r) in ops {
            let r = Reg(r);
            match op {
                0 => prop_assert_eq!(set.insert(r), model.insert(r)),
                1 => prop_assert_eq!(set.remove(r), model.remove(&r)),
                _ => prop_assert_eq!(set.contains(r), model.contains(&r)),
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        let mut want: Vec<Reg> = model.into_iter().collect();
        want.sort();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(set.into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn regmap_agrees_with_a_hash_map_model(
        cap in 0u32..200,
        ops in proptest::collection::vec((0u8..5, 0u32..300, any::<u32>()), 0..80),
    ) {
        // As for `RegSet`: registers up to 300 against a capacity below
        // 200, so sets past the capacity grow the map and reads past it
        // find nothing.
        let mut map = RegMap::with_capacity(cap);
        let mut model: HashMap<Reg, u32> = HashMap::new();
        for (op, r, v) in ops {
            let r = Reg(r);
            match op {
                0 => prop_assert_eq!(map.insert(r, v), model.insert(r, v)),
                1 => prop_assert_eq!(map.set(r, None), model.remove(&r)),
                2 => prop_assert_eq!(map.remove(r), model.remove(&r)),
                3 => {
                    *map.get_or_default(r) += v % 8;
                    *model.entry(r).or_default() += v % 8;
                }
                _ => prop_assert_eq!(map.get(r), model.get(&r)),
            }
            prop_assert_eq!(map.contains(r), model.contains_key(&r));
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
        let mut want: Vec<(Reg, u32)> = model.into_iter().collect();
        want.sort();
        let got: Vec<(Reg, u32)> = map.iter().map(|(r, &v)| (r, v)).collect();
        prop_assert_eq!(&got, &want);
        let mut rebuilt = RegMap::new();
        for &(r, v) in &want {
            rebuilt.insert(r, v);
        }
        prop_assert!(rebuilt == map, "equal maps compare equal whatever their slots");
        let even = map.filter_map(|&v| (v % 2 == 0).then_some(v));
        let want_even: Vec<(Reg, u32)> = want.iter().copied().filter(|(_, v)| v % 2 == 0).collect();
        prop_assert_eq!(even.iter().map(|(r, &v)| (r, v)).collect::<Vec<_>>(), want_even);
        for (_, v) in map.iter_mut() {
            *v = v.wrapping_add(1);
        }
        let bumped: Vec<(Reg, u32)> = want.iter().map(|&(r, v)| (r, v.wrapping_add(1))).collect();
        prop_assert_eq!(map.iter().map(|(r, &v)| (r, v)).collect::<Vec<_>>(), bumped);
    }

    #[test]
    fn regset_collects_and_extends_like_a_hash_set(
        a in proptest::collection::vec(0u32..300, 0..40),
        b in proptest::collection::vec(0u32..300, 0..40),
    ) {
        let mut set: RegSet = a.iter().map(|&r| Reg(r)).collect();
        set.extend(b.iter().map(|&r| Reg(r)));
        let mut want: Vec<Reg> = a
            .iter()
            .chain(&b)
            .map(|&r| Reg(r))
            .collect::<HashSet<Reg>>()
            .into_iter()
            .collect();
        want.sort();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn appending_work_never_reduces_pressure_or_mix(
        nodes in proptest::collection::vec(node_strategy(), 1..6),
        extra in proptest::collection::vec(node_strategy(), 1..6),
    ) {
        let small = build(&nodes);
        let mut combined = nodes.clone();
        combined.extend(extra);
        let large = build(&combined);
        prop_assert!(large.total_insts() >= small.total_insts());
        prop_assert!(instruction_mix(&large).total() >= instruction_mix(&small).total());
    }
}
