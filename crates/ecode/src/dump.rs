//! Human-readable bytecode listings.
//!
//! Thin façade over [`RCode::disassemble`] so tooling (the `report -- vm`
//! subcommand, the `vm_dump` example) has one stable import point.

use crate::bytecode::RCode;

/// Renders a register program as an annotated listing — superinstructions
/// (`CopyPath`, `BatchCopy`) print with their full path operands.
pub fn register(code: &RCode) -> String {
    code.disassemble()
}

#[cfg(test)]
mod tests {
    use crate::{EcodeCompiler, EcodeProgram};
    use pbio::FormatBuilder;

    fn compile(src: &str) -> EcodeProgram {
        let fmt = FormatBuilder::record("S").int("a").int("b").build_arc().unwrap();
        EcodeCompiler::new().bind_input("old", &fmt).bind_output("new", &fmt).compile(src).unwrap()
    }

    #[test]
    fn listing_covers_every_instruction() {
        let prog = compile("new.a = old.a + old.b; new.b = old.b * 2;");
        let r = super::register(prog.code());
        // Every instruction index appears in the listing.
        for i in 0..prog.code().len() {
            assert!(r.contains(&format!("{i:4} ")), "listing missing insn {i}:\n{r}");
        }
        assert!(r.starts_with("; register ISA:"), "header: {r}");
    }

    #[test]
    fn register_listing_shows_copy_superinstruction() {
        let prog = compile("new.a = old.b;");
        let r = super::register(prog.code());
        assert!(r.contains("CopyPath"), "whole-field copy should fuse:\n{r}");
    }
}
