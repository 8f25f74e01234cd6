//! Property tests for the mapper's structural invariants, parameterized
//! over the built-in suite and random geometries.

use proptest::prelude::*;
use rsp_arch::{ArrayGeometry, BaseArchitecture, BusSpec, OpKind, PeDesign};
use rsp_kernel::{suite, Kernel, MappingStyle};
use rsp_mapper::{check_buses, encode_context, map, validate_base_schedule, MapOptions};

fn base(rows: usize, cols: usize) -> BaseArchitecture {
    BaseArchitecture::new(
        ArrayGeometry::new(rows, cols),
        PeDesign::full(),
        BusSpec::paper_default(),
        4096,
    )
}

fn kernels() -> Vec<Kernel> {
    let mut v = suite::all();
    v.push(suite::matmul(4));
    v
}

/// Mapping is a pure function of `(base, kernel, options)`: repeated
/// calls — including calls racing on separate threads — produce
/// identical contexts. This is the property concurrent served requests
/// rest on: server workers mapping at once, onto any geometry, get the
/// context a lone call gets.
#[test]
fn mapping_is_deterministic_across_threads_and_geometries() {
    let geometries = [(4usize, 4usize), (6, 6), (8, 8)];
    for k in kernels() {
        let serial: Vec<Option<rsp_mapper::ConfigContext>> = geometries
            .iter()
            .map(|&(r, c)| map(&base(r, c), &k, &MapOptions::default()).ok())
            .collect();
        let threaded: Vec<Option<rsp_mapper::ConfigContext>> = std::thread::scope(|s| {
            let handles: Vec<_> = geometries
                .iter()
                .map(|&(r, c)| {
                    let k = &k;
                    s.spawn(move || map(&base(r, c), k, &MapOptions::default()).ok())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, threaded, "{}", k.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mapping_is_total_and_legal_on_any_geometry(
        rows in 2usize..=10,
        cols in 2usize..=10,
        ki in 0usize..10,
    ) {
        let k = &kernels()[ki];
        let Ok(ctx) = map(&base(rows, cols), k, &MapOptions::default()) else {
            return Ok(()); // infeasible (e.g. bus-bound dataflow on tiny rows)
        };
        prop_assert_eq!(ctx.instances().len(), k.total_ops());
        prop_assert!(validate_base_schedule(&ctx).is_ok());
        // Placement stays inside the array.
        for inst in ctx.instances() {
            prop_assert!(inst.pe.row < rows && inst.pe.col < cols);
        }
        // Demand totals are exact.
        prop_assert_eq!(ctx.mult_profile().total, k.total_mults());
    }

    #[test]
    fn lockstep_keeps_elements_on_one_pe(
        rows in 2usize..=8,
        cols in 2usize..=8,
        ki in 0usize..10,
    ) {
        let k = &kernels()[ki];
        if k.style() != MappingStyle::Lockstep {
            return Ok(());
        }
        let Ok(ctx) = map(&base(rows, cols), k, &MapOptions::default()) else {
            return Ok(());
        };
        use std::collections::HashMap;
        let mut pe_of_element: HashMap<u32, rsp_arch::PeId> = HashMap::new();
        for inst in ctx.instances() {
            let prev = pe_of_element.insert(inst.element, inst.pe);
            if let Some(p) = prev {
                prop_assert_eq!(p, inst.pe, "element {} hops PEs", inst.element);
            }
        }
    }

    #[test]
    fn dataflow_keeps_elements_in_one_row(
        rows in 2usize..=8,
        cols in 4usize..=10,
        ki in 0usize..10,
    ) {
        let k = &kernels()[ki];
        if k.style() != MappingStyle::Dataflow {
            return Ok(());
        }
        let Ok(ctx) = map(&base(rows, cols), k, &MapOptions::default()) else {
            return Ok(());
        };
        use std::collections::HashMap;
        let mut row_of_element: HashMap<u32, usize> = HashMap::new();
        for inst in ctx.instances() {
            let prev = row_of_element.insert(inst.element, inst.pe.row);
            if let Some(r) = prev {
                prop_assert_eq!(r, inst.pe.row, "element {} hops rows", inst.element);
            }
        }
        // Dataflow base schedules are strictly bus-legal.
        prop_assert!(check_buses(&ctx, ctx.cycles()).is_ok());
    }

    #[test]
    fn strict_bus_mapping_is_always_bus_legal(ki in 0usize..10) {
        let k = &kernels()[ki];
        let opts = MapOptions { strict_buses: true, ..MapOptions::default() };
        let Ok(ctx) = map(&base(8, 8), k, &opts) else { return Ok(()); };
        prop_assert!(check_buses(&ctx, ctx.cycles()).is_ok());
        prop_assert!(validate_base_schedule(&ctx).is_ok());
    }

    #[test]
    fn encoding_round_trips_program_order(ki in 0usize..10) {
        let k = &kernels()[ki];
        let arch = rsp_arch::presets::base_8x8();
        let Ok(ctx) = map(arch.base(), k, &MapOptions::default()) else {
            return Ok(());
        };
        let bindings = vec![None; ctx.instances().len()];
        let img = encode_context(&ctx, ctx.cycles(), &bindings, &arch).unwrap();
        prop_assert_eq!(img.depth() as u32, ctx.total_cycles());
        // Each instance decodes to its own opcode at its slot; idle slots
        // are NOPs; counts add up.
        let mut decoded_ops = 0usize;
        for pe in arch.geometry().iter() {
            for cyc in 0..img.depth() {
                if img.word(pe, cyc).op().is_some() {
                    decoded_ops += 1;
                }
            }
        }
        prop_assert_eq!(decoded_ops, ctx.instances().len());
        for inst in ctx.instances() {
            let w = img.word(inst.pe, ctx.cycle_of(inst.id) as usize);
            prop_assert_eq!(w.op(), Some(inst.op));
        }
    }

    #[test]
    fn stores_and_loads_hit_declared_arrays(ki in 0usize..10) {
        let k = &kernels()[ki];
        let Ok(ctx) = map(&base(8, 8), k, &MapOptions::default()) else {
            return Ok(());
        };
        for inst in ctx.instances() {
            for l in &inst.loads {
                let decl = &k.arrays()[l.array as usize];
                prop_assert!((l.addr as usize) < decl.len, "load oob in {}", decl.name);
            }
            if let Some(st) = inst.store {
                let decl = &k.arrays()[st.array as usize];
                prop_assert!((st.addr as usize) < decl.len, "store oob in {}", decl.name);
            }
            // Op kind consistent with memory accesses.
            match inst.op {
                OpKind::Load => prop_assert!(!inst.loads.is_empty()),
                OpKind::Store => prop_assert!(inst.store.is_some()),
                _ => {
                    prop_assert!(inst.loads.is_empty());
                    prop_assert!(inst.store.is_none());
                }
            }
        }
    }
}
