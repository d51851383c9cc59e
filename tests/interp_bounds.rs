//! Memory accesses near the top of the 64-bit address space must trap with
//! `Trap::OutOfBounds`, never wrap past the bounds check and panic: hostile
//! or miscompiled IR can compute any address, and the daemon runs such
//! binaries.

use citroen::ir::builder::FunctionBuilder;
use citroen::ir::interp::{run_counting, Trap};
use citroen::ir::types::{ScalarTy, Ty, I64};
use citroen::ir::{FuncId, Module, Operand};

/// Addresses whose access end (or some lane) does not fit in 64 bits.
const ADDRS: [i64; 2] = [-4, (u64::MAX - 7) as i64];

fn trap_of(build: impl FnOnce(&mut FunctionBuilder)) -> Trap {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![], None);
    build(&mut b);
    b.ret(None);
    m.add_func(b.finish());
    run_counting(&m, FuncId(0), &[]).expect_err("access must trap")
}

#[test]
fn scalar_load_and_store_at_the_top_of_memory_trap() {
    for addr in ADDRS {
        let t = trap_of(|b| {
            b.load(I64, Operand::imm64(addr));
        });
        assert!(matches!(t, Trap::OutOfBounds(_)), "load at {addr}: {t:?}");
        let t = trap_of(|b| b.store(I64, Operand::imm64(1), Operand::imm64(addr)));
        assert!(matches!(t, Trap::OutOfBounds(_)), "store at {addr}: {t:?}");
    }
}

#[test]
fn vector_access_whose_lanes_wrap_traps() {
    let v4 = Ty::vector(ScalarTy::I64, 4);
    for addr in ADDRS {
        let t = trap_of(|b| {
            b.load(v4, Operand::imm64(addr));
        });
        assert!(matches!(t, Trap::OutOfBounds(_)), "vector load at {addr}: {t:?}");
        let t = trap_of(|b| {
            let v = b.splat(v4, Operand::imm64(7));
            b.store(v4, v, Operand::imm64(addr));
        });
        assert!(matches!(t, Trap::OutOfBounds(_)), "vector store at {addr}: {t:?}");
    }
}
