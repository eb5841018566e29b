//! A round-trippable text format for [`FuzzCase`]s.
//!
//! Minimized counterexamples live as `.rmt` files in the committed
//! `fuzz/corpus/` directory and are replayed by a tier-1 test, so the
//! format must be exact: `parse(serialize(case)) == case`, bit for bit.
//! Constants are therefore written as raw hex patterns (the pretty-
//! printer in `display.rs` renders floats lossily and is not reused),
//! and `next_reg` is stored explicitly rather than recomputed.
//!
//! The format is line-oriented: `#` starts a comment, blank lines are
//! ignored, nested blocks open with a trailing `{` and close with a line
//! holding `}` (or `} else {` / `} body {` between the two blocks of an
//! `if` / `while`).

use super::{ArgSpec, BufferFill, FuzzCase};
use crate::{
    AtomicOp, BinOp, Block, Builtin, CmpOp, Dim, Inst, Kernel, MemSpace, Param, ParamKind, Reg,
    SwizzleMode, Ty, UnOp,
};
use std::fmt::Write as _;

/// Renders a case to the corpus text format.
pub fn serialize(case: &FuzzCase) -> String {
    let mut s = String::new();
    let k = &case.kernel;
    let _ = writeln!(s, "case {}", k.name);
    let _ = writeln!(s, "launch global={} local={}", case.global, case.local);
    let _ = writeln!(s, "lds {}", k.lds_bytes);
    let _ = writeln!(s, "next_reg {}", k.next_reg);
    for (p, a) in k.params.iter().zip(&case.args) {
        let kind = match p.kind {
            ParamKind::Buffer => "buffer".to_string(),
            ParamKind::Scalar(ty) => format!("scalar {ty}"),
        };
        let spec = match *a {
            ArgSpec::Buffer { words, fill } => {
                let fill = match fill {
                    BufferFill::Zero => "zero".to_string(),
                    BufferFill::Ramp => "ramp".to_string(),
                    BufferFill::Hash(salt) => format!("hash:{salt:#010x}"),
                };
                format!("words={words} fill={fill}")
            }
            ArgSpec::Scalar { bits } => format!("bits={bits:#010x}"),
        };
        let _ = writeln!(s, "param {} {kind} {spec}", p.name);
    }
    s.push_str("body {\n");
    write_block(&mut s, &k.body, 1);
    s.push_str("}\n");
    s
}

fn indent(s: &mut String, depth: usize) {
    for _ in 0..depth {
        s.push_str("  ");
    }
}

fn write_block(s: &mut String, b: &Block, depth: usize) {
    for inst in b.iter() {
        indent(s, depth);
        match inst {
            Inst::Const { dst, ty, bits } => {
                let _ = writeln!(s, "const {dst} {ty} {bits:#010x}");
            }
            Inst::Unary { dst, op, a } => {
                let _ = writeln!(s, "un {dst} {op} {a}");
            }
            Inst::Binary { dst, op, ty, a, b } => {
                let _ = writeln!(s, "bin {dst} {op} {ty} {a} {b}");
            }
            Inst::Cmp { dst, op, ty, a, b } => {
                let _ = writeln!(s, "cmp {dst} {op} {ty} {a} {b}");
            }
            Inst::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                let _ = writeln!(s, "sel {dst} {cond} {if_true} {if_false}");
            }
            Inst::Mov { dst, src } => {
                let _ = writeln!(s, "mov {dst} {src}");
            }
            Inst::ReadBuiltin { dst, builtin } => {
                let _ = writeln!(s, "builtin {dst} {builtin}");
            }
            Inst::ReadParam { dst, index } => {
                let _ = writeln!(s, "readparam {dst} {index}");
            }
            Inst::Load { dst, space, addr } => {
                let _ = writeln!(s, "load {dst} {space} {addr}");
            }
            Inst::Store { space, addr, value } => {
                let _ = writeln!(s, "store {space} {addr} {value}");
            }
            Inst::Atomic {
                dst,
                space,
                op,
                addr,
                value,
            } => {
                let d = match dst {
                    Some(r) => format!("{r}"),
                    None => "_".to_string(),
                };
                let o = match op {
                    AtomicOp::Add => "add".to_string(),
                    AtomicOp::Exchange => "xchg".to_string(),
                    AtomicOp::CmpXchg { cmp } => format!("cmpxchg:{cmp}"),
                    AtomicOp::Max => "max".to_string(),
                    AtomicOp::Min => "min".to_string(),
                };
                let _ = writeln!(s, "atomic {d} {space} {o} {addr} {value}");
            }
            Inst::Barrier => {
                s.push_str("barrier\n");
            }
            Inst::Swizzle { dst, src, mode } => {
                let _ = writeln!(s, "swizzle {dst} {src} {mode}");
            }
            Inst::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let _ = writeln!(s, "if {cond} {{");
                write_block(s, then_blk, depth + 1);
                indent(s, depth);
                s.push_str("} else {\n");
                write_block(s, else_blk, depth + 1);
                indent(s, depth);
                s.push_str("}\n");
            }
            Inst::While {
                cond,
                cond_reg,
                body,
            } => {
                let _ = writeln!(s, "while {cond_reg} {{");
                write_block(s, cond, depth + 1);
                indent(s, depth);
                s.push_str("} body {\n");
                write_block(s, body, depth + 1);
                indent(s, depth);
                s.push_str("}\n");
            }
        }
    }
}

/// Parses the corpus text format. Errors name the offending line.
pub fn parse(text: &str) -> Result<FuzzCase, String> {
    let mut p = Parser {
        lines: text
            .lines()
            .enumerate()
            .map(|(n, l)| (n + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .collect(),
        pos: 0,
    };
    let name = p.expect_prefixed("case")?.to_string();
    let launch = p.expect_prefixed("launch")?;
    let (global, local) = parse_launch(launch).map_err(|e| p.err_prev(&e))?;
    let lds_bytes = p
        .expect_prefixed("lds")?
        .parse::<u32>()
        .map_err(|e| p.err_prev(&format!("bad lds byte count: {e}")))?;
    let next_reg = p
        .expect_prefixed("next_reg")?
        .parse::<u32>()
        .map_err(|e| p.err_prev(&format!("bad next_reg: {e}")))?;
    let mut params = Vec::new();
    let mut args = Vec::new();
    while let Some(rest) = p.take_prefixed("param") {
        let (param, arg) = parse_param(rest).map_err(|e| p.err_prev(&e))?;
        params.push(param);
        args.push(arg);
    }
    let err = p.err_here("expected `body {`");
    if p.next_line().map_err(|_| err.clone())? != "body {" {
        return Err(err);
    }
    let body = p.parse_block()?;
    if p.pos != p.lines.len() {
        return Err(p.err_here("trailing content after the body block"));
    }
    Ok(FuzzCase {
        kernel: Kernel {
            name,
            params,
            lds_bytes,
            body,
            next_reg,
        },
        global,
        local,
        args,
    })
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn next_line(&mut self) -> Result<&'a str, String> {
        match self.lines.get(self.pos) {
            Some(&(_, l)) => {
                self.pos += 1;
                Ok(l)
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn err_here(&self, msg: &str) -> String {
        match self.lines.get(self.pos) {
            Some(&(n, l)) => format!("line {n} (`{l}`): {msg}"),
            None => format!("at end of input: {msg}"),
        }
    }

    fn err_prev(&self, msg: &str) -> String {
        match self.lines.get(self.pos.saturating_sub(1)) {
            Some(&(n, l)) => format!("line {n} (`{l}`): {msg}"),
            None => format!("at end of input: {msg}"),
        }
    }

    fn expect_prefixed(&mut self, key: &str) -> Result<&'a str, String> {
        let err = self.err_here(&format!("expected `{key} ...`"));
        let line = self.next_line().map_err(|_| err.clone())?;
        line.strip_prefix(key)
            .map(str::trim)
            .filter(|r| !r.is_empty())
            .ok_or(err)
    }

    fn take_prefixed(&mut self, key: &str) -> Option<&'a str> {
        let &(_, line) = self.lines.get(self.pos)?;
        let rest = line.strip_prefix(key)?;
        if !rest.starts_with(' ') {
            return None;
        }
        self.pos += 1;
        Some(rest.trim())
    }

    /// Parses instruction lines until the closing `}`-family line, which
    /// is consumed and returned.
    fn parse_block_until(&mut self) -> Result<(Block, &'a str), String> {
        let mut insts = Vec::new();
        loop {
            let err = self.err_here("expected an instruction or `}`");
            let line = self.next_line().map_err(|_| err)?;
            if line == "}" || line == "} else {" || line == "} body {" {
                return Ok((Block(insts), line));
            }
            let inst = self.parse_inst(line).map_err(|e| {
                // Nested block errors already carry their own location.
                if e.starts_with("line ") || e.starts_with("at end of input") {
                    e
                } else {
                    self.err_prev(&e)
                }
            })?;
            insts.push(inst);
        }
    }

    /// Parses a block that must close with a bare `}`.
    fn parse_block(&mut self) -> Result<Block, String> {
        let (b, close) = self.parse_block_until()?;
        if close != "}" {
            return Err(self.err_prev("expected `}` to close this block"));
        }
        Ok(b)
    }

    fn parse_inst(&mut self, line: &str) -> Result<Inst, String> {
        let fail = |msg: &str| -> String { format!("`{line}`: {msg}") };
        let toks: Vec<&str> = line.split_whitespace().collect();
        let inst = match toks[0] {
            "const" if toks.len() == 4 => Inst::Const {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                ty: ty(toks[2]).map_err(|e| fail(&e))?,
                bits: hex32(toks[3]).map_err(|e| fail(&e))?,
            },
            "un" if toks.len() == 4 => Inst::Unary {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                op: un_op(toks[2]).map_err(|e| fail(&e))?,
                a: reg(toks[3]).map_err(|e| fail(&e))?,
            },
            "bin" if toks.len() == 6 => Inst::Binary {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                op: bin_op(toks[2]).map_err(|e| fail(&e))?,
                ty: ty(toks[3]).map_err(|e| fail(&e))?,
                a: reg(toks[4]).map_err(|e| fail(&e))?,
                b: reg(toks[5]).map_err(|e| fail(&e))?,
            },
            "cmp" if toks.len() == 6 => Inst::Cmp {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                op: cmp_op(toks[2]).map_err(|e| fail(&e))?,
                ty: ty(toks[3]).map_err(|e| fail(&e))?,
                a: reg(toks[4]).map_err(|e| fail(&e))?,
                b: reg(toks[5]).map_err(|e| fail(&e))?,
            },
            "sel" if toks.len() == 5 => Inst::Select {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                cond: reg(toks[2]).map_err(|e| fail(&e))?,
                if_true: reg(toks[3]).map_err(|e| fail(&e))?,
                if_false: reg(toks[4]).map_err(|e| fail(&e))?,
            },
            "mov" if toks.len() == 3 => Inst::Mov {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                src: reg(toks[2]).map_err(|e| fail(&e))?,
            },
            "builtin" if toks.len() == 3 => Inst::ReadBuiltin {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                builtin: builtin(toks[2]).map_err(|e| fail(&e))?,
            },
            "readparam" if toks.len() == 3 => Inst::ReadParam {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                index: toks[2].parse().map_err(|_| fail("bad param index"))?,
            },
            "load" if toks.len() == 4 => Inst::Load {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                space: space(toks[2]).map_err(|e| fail(&e))?,
                addr: reg(toks[3]).map_err(|e| fail(&e))?,
            },
            "store" if toks.len() == 4 => Inst::Store {
                space: space(toks[1]).map_err(|e| fail(&e))?,
                addr: reg(toks[2]).map_err(|e| fail(&e))?,
                value: reg(toks[3]).map_err(|e| fail(&e))?,
            },
            "atomic" if toks.len() == 6 => Inst::Atomic {
                dst: if toks[1] == "_" {
                    None
                } else {
                    Some(reg(toks[1]).map_err(|e| fail(&e))?)
                },
                space: space(toks[2]).map_err(|e| fail(&e))?,
                op: atomic_op(toks[3]).map_err(|e| fail(&e))?,
                addr: reg(toks[4]).map_err(|e| fail(&e))?,
                value: reg(toks[5]).map_err(|e| fail(&e))?,
            },
            "barrier" if toks.len() == 1 => Inst::Barrier,
            "swizzle" if toks.len() == 4 => Inst::Swizzle {
                dst: reg(toks[1]).map_err(|e| fail(&e))?,
                src: reg(toks[2]).map_err(|e| fail(&e))?,
                mode: swizzle_mode(toks[3]).map_err(|e| fail(&e))?,
            },
            "if" if toks.len() == 3 && toks[2] == "{" => {
                let cond = reg(toks[1]).map_err(|e| fail(&e))?;
                let (then_blk, close) = self.parse_block_until()?;
                if close != "} else {" {
                    return Err(self.err_prev("expected `} else {` after the then block"));
                }
                let else_blk = self.parse_block()?;
                Inst::If {
                    cond,
                    then_blk,
                    else_blk,
                }
            }
            "while" if toks.len() == 3 && toks[2] == "{" => {
                let cond_reg = reg(toks[1]).map_err(|e| fail(&e))?;
                let (cond, close) = self.parse_block_until()?;
                if close != "} body {" {
                    return Err(self.err_prev("expected `} body {` after the condition block"));
                }
                let body = self.parse_block()?;
                Inst::While {
                    cond,
                    cond_reg,
                    body,
                }
            }
            _ => return Err(fail("unknown instruction or wrong operand count")),
        };
        Ok(inst)
    }
}

fn parse_launch(rest: &str) -> Result<(u32, u32), String> {
    let mut global = None;
    let mut local = None;
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix("global=") {
            global = Some(v.parse::<u32>().map_err(|e| format!("bad global: {e}"))?);
        } else if let Some(v) = tok.strip_prefix("local=") {
            local = Some(v.parse::<u32>().map_err(|e| format!("bad local: {e}"))?);
        } else {
            return Err(format!("unknown launch field `{tok}`"));
        }
    }
    match (global, local) {
        (Some(g), Some(l)) if l > 0 && g > 0 && g % l == 0 => Ok((g, l)),
        (Some(_), Some(_)) => Err("launch needs local > 0 dividing global > 0".into()),
        _ => Err("launch needs both global= and local=".into()),
    }
}

fn parse_param(rest: &str) -> Result<(Param, ArgSpec), String> {
    let toks: Vec<&str> = rest.split_whitespace().collect();
    match toks.as_slice() {
        [name, "buffer", words, fill] => {
            let words = words
                .strip_prefix("words=")
                .ok_or("expected words=N")?
                .parse::<u32>()
                .map_err(|e| format!("bad words: {e}"))?;
            let fill = match fill.strip_prefix("fill=").ok_or("expected fill=...")? {
                "zero" => BufferFill::Zero,
                "ramp" => BufferFill::Ramp,
                f => match f.strip_prefix("hash:") {
                    Some(salt) => BufferFill::Hash(hex32(salt)?),
                    None => return Err(format!("unknown fill `{f}`")),
                },
            };
            Ok((
                Param {
                    name: name.to_string(),
                    kind: ParamKind::Buffer,
                },
                ArgSpec::Buffer { words, fill },
            ))
        }
        [name, "scalar", t, bits] => {
            let bits = hex32(bits.strip_prefix("bits=").ok_or("expected bits=0x...")?)?;
            Ok((
                Param {
                    name: name.to_string(),
                    kind: ParamKind::Scalar(ty(t)?),
                },
                ArgSpec::Scalar { bits },
            ))
        }
        _ => Err(format!("malformed param line `{rest}`")),
    }
}

fn reg(tok: &str) -> Result<Reg, String> {
    tok.strip_prefix('%')
        .and_then(|n| n.parse::<u32>().ok())
        .map(Reg)
        .ok_or_else(|| format!("expected a register, got `{tok}`"))
}

fn hex32(tok: &str) -> Result<u32, String> {
    let digits = tok
        .strip_prefix("0x")
        .ok_or_else(|| format!("expected 0x-prefixed hex, got `{tok}`"))?;
    u32::from_str_radix(digits, 16).map_err(|e| format!("bad hex `{tok}`: {e}"))
}

fn ty(tok: &str) -> Result<Ty, String> {
    match tok {
        "i32" => Ok(Ty::I32),
        "u32" => Ok(Ty::U32),
        "f32" => Ok(Ty::F32),
        _ => Err(format!("unknown type `{tok}`")),
    }
}

fn space(tok: &str) -> Result<MemSpace, String> {
    match tok {
        "global" => Ok(MemSpace::Global),
        "local" => Ok(MemSpace::Local),
        _ => Err(format!("unknown address space `{tok}`")),
    }
}

fn bin_op(tok: &str) -> Result<BinOp, String> {
    Ok(match tok {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "min" => BinOp::Min,
        "max" => BinOp::Max,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        _ => return Err(format!("unknown binary op `{tok}`")),
    })
}

fn un_op(tok: &str) -> Result<UnOp, String> {
    Ok(match tok {
        "not" => UnOp::Not,
        "neg" => UnOp::Neg,
        "abs" => UnOp::Abs,
        "exp" => UnOp::Exp,
        "log" => UnOp::Log,
        "sqrt" => UnOp::Sqrt,
        "rsqrt" => UnOp::Rsqrt,
        "sin" => UnOp::Sin,
        "cos" => UnOp::Cos,
        "floor" => UnOp::Floor,
        "f32_to_i32" => UnOp::F32ToI32,
        "i32_to_f32" => UnOp::I32ToF32,
        "u32_to_f32" => UnOp::U32ToF32,
        "f32_to_u32" => UnOp::F32ToU32,
        _ => return Err(format!("unknown unary op `{tok}`")),
    })
}

fn cmp_op(tok: &str) -> Result<CmpOp, String> {
    Ok(match tok {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        _ => return Err(format!("unknown compare op `{tok}`")),
    })
}

fn atomic_op(tok: &str) -> Result<AtomicOp, String> {
    Ok(match tok {
        "add" => AtomicOp::Add,
        "xchg" => AtomicOp::Exchange,
        "max" => AtomicOp::Max,
        "min" => AtomicOp::Min,
        _ => match tok.strip_prefix("cmpxchg:") {
            Some(r) => AtomicOp::CmpXchg { cmp: reg(r)? },
            None => return Err(format!("unknown atomic op `{tok}`")),
        },
    })
}

fn swizzle_mode(tok: &str) -> Result<SwizzleMode, String> {
    match tok {
        "swap_pairs" => Ok(SwizzleMode::SwapPairs),
        "dup_even" => Ok(SwizzleMode::DupEven),
        "dup_odd" => Ok(SwizzleMode::DupOdd),
        _ => Err(format!("unknown swizzle mode `{tok}`")),
    }
}

fn builtin(tok: &str) -> Result<Builtin, String> {
    let (name, dim) = tok
        .rsplit_once('.')
        .ok_or_else(|| format!("malformed builtin `{tok}`"))?;
    let d: u8 = dim
        .parse()
        .map_err(|_| format!("bad dimension in `{tok}`"))?;
    if d > 2 {
        return Err(format!("dimension out of range in `{tok}`"));
    }
    Ok(match name {
        "global_id" => Builtin::GlobalId(Dim(d)),
        "local_id" => Builtin::LocalId(Dim(d)),
        "group_id" => Builtin::GroupId(Dim(d)),
        "global_size" => Builtin::GlobalSize(Dim(d)),
        "local_size" => Builtin::LocalSize(Dim(d)),
        "num_groups" => Builtin::NumGroups(Dim(d)),
        _ => return Err(format!("unknown builtin `{tok}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::super::{generate, GenConfig};
    use super::*;

    #[test]
    fn generated_cases_round_trip() {
        let cfg = GenConfig::default();
        for seed in 0..100 {
            let case = generate(seed, &cfg);
            let text = serialize(&case);
            let back = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(back, case, "seed {seed}");
            // Serialization is itself stable.
            assert_eq!(serialize(&back), text, "seed {seed}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let case = generate(3, &GenConfig::default());
        let text = serialize(&case);
        let commented = format!("# header comment\n\n{}\n# trailing\n", text);
        assert_eq!(parse(&commented).unwrap(), case);
    }

    #[test]
    fn malformed_inputs_yield_line_errors() {
        for (input, needle) in [
            ("", "expected `case ...`"),
            ("case k\nlaunch global=8\n", "launch needs both"),
            (
                "case k\nlaunch global=8 local=3\nlds 0\nnext_reg 0\nbody {\n}\n",
                "dividing",
            ),
            (
                "case k\nlaunch global=8 local=8\nlds 0\nnext_reg 0\nbody {\nfrobnicate %0\n}\n",
                "unknown instruction",
            ),
            (
                "case k\nlaunch global=8 local=8\nlds 0\nnext_reg 0\nbody {\n",
                "expected an instruction or `}`",
            ),
        ] {
            let err = parse(input).expect_err(input);
            assert!(err.contains(needle), "`{input}` gave `{err}`");
        }
    }

    #[test]
    fn errors_name_the_line_number() {
        let input = "case k\nlaunch global=8 local=8\nlds 0\nnext_reg 0\nbody {\nbogus\n}\n";
        let err = parse(input).expect_err("must fail");
        assert!(err.contains("line 6"), "{err}");
    }
}
