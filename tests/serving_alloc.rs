//! The acceptance gate of the prepared serving path:
//! `ServingHandle::lookup` — over one engine, and over the sharded router's
//! engines with the routing hash in front — performs **zero heap
//! allocations** on the warm path, and therefore zero `Debug`/SQL rendering
//! and zero `Value` clones, all of which allocate.
//!
//! Enforced with a counting global allocator. This file is its own test
//! binary so no unrelated suite shares the allocator, and both the counter
//! and its gate are const-initialized thread-locals (which themselves never
//! allocate), so the two tests here and the harness's other threads can all
//! run concurrently without leaking allocations into each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use feataug::pipeline::AugModel;
use feataug::{AugPlan, PlannedQuery, PredicateQuery, ShardRouter};
use feataug_tabular::{AggFunc, Column, Predicate, Table, Value};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: defers entirely to `System`; the bookkeeping around it is a pair of
// const-initialized thread-local reads (neither allocates).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` with this thread's allocations counted; returns how many the
/// closure performed.
fn count_allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// The shared fixture: two key columns, a float aggregate column, and a
/// categorical predicate column — multi-column probes, categorical and
/// integer atomizers, and NULL slots all get exercised.
fn fixture() -> (Table, Table) {
    let mut train = Table::new("users");
    train
        .add_column("cname", Column::from_strs(&["a", "b", "c"]))
        .unwrap();
    train
        .add_column("uid", Column::from_i64s(&[1, 2, 9]))
        .unwrap();
    let mut relevant = Table::new("logs");
    relevant
        .add_column("cname", Column::from_strs(&["a", "a", "b", "b"]))
        .unwrap();
    relevant
        .add_column("uid", Column::from_i64s(&[1, 1, 2, 2]))
        .unwrap();
    relevant
        .add_column("pprice", Column::from_f64s(&[10.0, 20.0, 30.0, 40.0]))
        .unwrap();
    relevant
        .add_column("department", Column::from_strs(&["E", "H", "E", "E"]))
        .unwrap();
    (train, relevant)
}

fn planned(agg: AggFunc, predicate: Predicate, keys: &[&str]) -> PlannedQuery {
    PlannedQuery {
        query: PredicateQuery {
            agg,
            agg_column: "pprice".into(),
            predicate,
            group_keys: keys.iter().map(|s| s.to_string()).collect(),
        },
        loss: 0.0,
    }
}

#[test]
fn warm_prepared_lookup_is_allocation_free() {
    // A model mixing key subsets, predicate shapes and aggregate families —
    // every hot-path branch of the handle (multi-column probes, categorical
    // and integer atomizers, NULL slots) gets exercised.
    let (train, relevant) = fixture();
    let plan = AugPlan::new(
        "logs",
        vec!["cname".into(), "uid".into()],
        vec![
            planned(AggFunc::Sum, Predicate::eq("department", "E"), &["cname"]),
            planned(AggFunc::Avg, Predicate::True, &["cname", "uid"]),
            planned(AggFunc::Median, Predicate::True, &["uid"]),
            planned(AggFunc::Count, Predicate::ge("pprice", 15.0), &["cname"]),
        ],
    );
    let model = AugModel::compile(plan, &train, &relevant).expect("plan compiles");
    let handle = model.prepare().expect("prepare");

    // Keys built before counting starts: seen, partially seen, unseen, NULL
    // and type-mismatched — misses must be as allocation-free as hits.
    let keys: Vec<Vec<Value>> = vec![
        vec![Value::Str("a".into()), Value::Int(1)],
        vec![Value::Str("b".into()), Value::Int(2)],
        vec![Value::Str("b".into()), Value::Int(777)],
        vec![Value::Str("zz".into()), Value::Int(777)],
        vec![Value::Null, Value::Int(2)],
        vec![Value::Int(3), Value::Str("a".into())],
    ];
    let mut out: Vec<Option<f64>> = Vec::new();

    // Warm-up: pays the output buffer's one allocation and proves the
    // answers themselves.
    handle.lookup(&keys[0], &mut out).unwrap();
    assert_eq!(out, vec![Some(10.0), Some(15.0), Some(15.0), Some(1.0)]);
    for key in &keys {
        handle.lookup(key, &mut out).unwrap();
    }

    // The gate: thousands of warm lookups, zero allocations.
    let allocations = count_allocations(|| {
        for _ in 0..2_000 {
            for key in &keys {
                handle.lookup(key, &mut out).unwrap();
            }
        }
    });
    assert_eq!(
        allocations, 0,
        "ServingHandle::lookup allocated on the warm path"
    );

    // Sanity-check the harness itself: the counter does see allocations.
    let observed = count_allocations(|| {
        let v: Vec<u64> = (0..64).collect();
        std::hint::black_box(v);
    });
    assert!(
        observed > 0,
        "the counting allocator must observe a straightforward Vec allocation"
    );

    // And the answers after the counted run are still right.
    handle.lookup(&keys[1], &mut out).unwrap();
    assert_eq!(out, vec![Some(70.0), Some(35.0), Some(35.0), Some(2.0)]);
    handle.lookup(&keys[3], &mut out).unwrap();
    assert_eq!(out, vec![None, None, None, None]);
}

#[test]
fn warm_sharded_lookup_is_allocation_free() {
    // A sharded handle adds a routing hash in front of the owning shard's
    // probe; both are `// lint: hot-path` fns (serving.rs and
    // serving/shard.rs) and this test is the runtime half of that promise. Every query groups by
    // `cname` so the router shards on it (three shards — keys "a" and "b"
    // genuinely land on different engines, so the loop below crosses shards).
    let (train, relevant) = fixture();
    let plan = AugPlan::new(
        "logs",
        vec!["cname".into(), "uid".into()],
        vec![
            planned(AggFunc::Sum, Predicate::eq("department", "E"), &["cname"]),
            planned(AggFunc::Avg, Predicate::True, &["cname", "uid"]),
            planned(AggFunc::Count, Predicate::ge("pprice", 15.0), &["cname"]),
        ],
    );
    let router =
        ShardRouter::build_for_plan(Arc::new(train), &relevant, &plan, 3).expect("router builds");
    let handle = router.prepare(&plan).expect("prepare");

    // Seen keys on different shards, unseen, NULL-component and
    // type-mismatched keys — routing a miss must not allocate either.
    let keys: Vec<Vec<Value>> = vec![
        vec![Value::Str("a".into()), Value::Int(1)],
        vec![Value::Str("b".into()), Value::Int(2)],
        vec![Value::Str("b".into()), Value::Int(777)],
        vec![Value::Str("zz".into()), Value::Int(777)],
        vec![Value::Null, Value::Int(2)],
        vec![Value::Int(3), Value::Str("a".into())],
    ];
    let mut out: Vec<Option<f64>> = Vec::new();

    // Warm-up proves the routed answers match the unsharded fixture's.
    handle.lookup(&keys[0], &mut out).unwrap();
    assert_eq!(out, vec![Some(10.0), Some(15.0), Some(1.0)]);
    handle.lookup(&keys[1], &mut out).unwrap();
    assert_eq!(out, vec![Some(70.0), Some(35.0), Some(2.0)]);
    for key in &keys {
        handle.lookup(key, &mut out).unwrap();
    }

    // The gate: thousands of warm routed lookups, zero allocations — the
    // routing hash is a stack `DefaultHasher` and the probe reuses `out`.
    let allocations = count_allocations(|| {
        for _ in 0..2_000 {
            for key in &keys {
                handle.lookup(key, &mut out).unwrap();
            }
        }
    });
    assert_eq!(
        allocations, 0,
        "sharded ServingHandle::lookup allocated on the warm path"
    );

    // Answers after the counted run are still right, misses included.
    handle.lookup(&keys[0], &mut out).unwrap();
    assert_eq!(out, vec![Some(10.0), Some(15.0), Some(1.0)]);
    handle.lookup(&keys[3], &mut out).unwrap();
    assert_eq!(out, vec![None, None, None]);
}
