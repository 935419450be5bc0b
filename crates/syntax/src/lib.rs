//! # `vhdl1-syntax` — front end for the VHDL1 fragment
//!
//! This crate implements the front end of the VHDL1 language defined in
//! *Information Flow Analysis for VHDL* (Tolstrup, Nielson & Nielson,
//! PaCT 2005): the abstract syntax of Figure 1, a lexer and recursive-descent
//! parser for its conventional VHDL spelling, and the elaboration pass that
//! turns a parsed program into a flat [`Design`] of labelled processes — the
//! representation consumed by the simulator, the Reaching Definitions
//! analyses and the Information Flow analysis in the sibling crates.
//!
//! ## Quick start
//!
//! ```
//! use vhdl1_syntax::{parse, elaborate};
//!
//! let src = "
//!   entity copy is port(a : in std_logic; b : out std_logic); end copy;
//!   architecture rtl of copy is begin
//!     p : process begin b <= a; wait on a; end process p;
//!   end rtl;";
//! let design = elaborate(&parse(src)?)?;
//! assert_eq!(design.processes.len(), 1);
//! assert_eq!(design.input_signals(), vec!["a".to_string()]);
//! # Ok::<(), vhdl1_syntax::SyntaxError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod elaborate;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;

pub use ast::{
    Architecture, BinOp, Block, Concurrent, Decl, DesignUnit, Entity, Expr, Ident, Label, Port,
    PortMode, Process, Program, RangeDir, Slice, Stmt, Target, Type, UnOp,
};
pub use elaborate::{
    elaborate, elaborate_with, stmt_label, Design, ElabProcess, ElaborateOptions, SignalInfo,
    SignalKind, SignalNumbering, VariableInfo,
};
pub use error::{SyntaxError, SyntaxErrorKind};
pub use lexer::lex;
pub use parser::{
    parse, parse_expression, parse_statements, parse_with_depth, DEFAULT_PARSE_DEPTH,
};
pub use pretty::{pretty_expr, pretty_program, pretty_stmt};
pub use token::{Pos, Span};

/// Resource limits of the budgeted front end ([`frontend_with_limits`]).
///
/// `None` fields fall back to the built-in defaults: no source-size bound
/// and [`DEFAULT_PARSE_DEPTH`] nesting levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrontendLimits {
    /// Maximum accepted source length in bytes (checked before lexing).
    pub max_source_bytes: Option<u64>,
    /// Maximum combined expression/statement/block nesting depth.
    pub max_parse_depth: Option<u32>,
}

/// Parses and elaborates a source text in one step.
///
/// # Errors
///
/// Returns a [`SyntaxError`] from either the parser or the elaborator.
///
/// # Examples
///
/// ```
/// let d = vhdl1_syntax::frontend(
///     "entity e is port(a : in std_logic; b : out std_logic); end e;
///      architecture rtl of e is begin
///        p : process begin b <= a; wait on a; end process p;
///      end rtl;")?;
/// assert_eq!(d.name, "rtl");
/// # Ok::<(), vhdl1_syntax::SyntaxError>(())
/// ```
pub fn frontend(src: &str) -> Result<Design, SyntaxError> {
    elaborate(&parse(src)?)
}

/// [`frontend`] under explicit resource limits: the source size is checked
/// before lexing and the parser honours the nesting-depth bound.
///
/// # Errors
///
/// Returns a [`SyntaxError`] from the parser or the elaborator; exhausted
/// limits are reported as resource-limit errors
/// ([`SyntaxError::is_resource_limit`]) so budgeted callers can distinguish
/// them from malformed input.
pub fn frontend_with_limits(src: &str, limits: &FrontendLimits) -> Result<Design, SyntaxError> {
    if let Some(max) = limits.max_source_bytes {
        if src.len() as u64 > max {
            return Err(SyntaxError::resource(
                SyntaxErrorKind::Lex,
                None,
                format!("source is {} bytes, limit is {max}", src.len()),
            ));
        }
    }
    let depth = limits.max_parse_depth.unwrap_or(DEFAULT_PARSE_DEPTH);
    elaborate(&parse_with_depth(src, depth)?)
}
