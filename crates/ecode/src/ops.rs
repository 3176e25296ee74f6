//! Scalar semantics shared by the register VM and the reference
//! interpreter: the runtime-error constructor, integer and float
//! arithmetic, comparisons, and C-style string-to-number conversion. Both
//! engines call these, so the two can only disagree in control flow,
//! evaluation order and path navigation — exactly what the differential
//! tests exercise.

use crate::error::{EcodeError, Result};
use crate::tast::{ArithOp, CmpOp};

pub(crate) fn rt_err(msg: impl Into<String>) -> EcodeError {
    EcodeError::runtime(msg)
}

pub(crate) fn icmp(op: CmpOp, a: i64, b: i64) -> i64 {
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    };
    i64::from(r)
}

pub(crate) fn fcmp(op: CmpOp, a: f64, b: f64) -> i64 {
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    };
    i64::from(r)
}

pub(crate) fn scmp(op: CmpOp, a: &str, b: &str) -> i64 {
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    };
    i64::from(r)
}

pub(crate) fn iarith(op: ArithOp, a: i64, b: i64) -> Result<i64> {
    match op {
        ArithOp::Add => Ok(a.wrapping_add(b)),
        ArithOp::Sub => Ok(a.wrapping_sub(b)),
        ArithOp::Mul => Ok(a.wrapping_mul(b)),
        ArithOp::Div => {
            if b == 0 {
                Err(rt_err("integer division by zero"))
            } else {
                Ok(a.wrapping_div(b))
            }
        }
        ArithOp::Mod => {
            if b == 0 {
                Err(rt_err("integer modulo by zero"))
            } else {
                Ok(a.wrapping_rem(b))
            }
        }
    }
}

pub(crate) fn farith(op: ArithOp, a: f64, b: f64) -> f64 {
    match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
        ArithOp::Mod => a % b,
    }
}

/// C `atoi` semantics: optional whitespace, optional sign, leading digits;
/// anything unparsable is 0.
pub(crate) fn atoi(s: &str) -> i64 {
    let t = s.trim_start();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
    let v = digits.parse::<i64>().unwrap_or(0);
    if neg {
        v.wrapping_neg()
    } else {
        v
    }
}

/// C `atof`-ish semantics via Rust's parser on the leading float prefix.
pub(crate) fn atof(s: &str) -> f64 {
    let t = s.trim_start();
    // Find the longest prefix that parses.
    let mut best = 0.0;
    let mut len = 0;
    for (i, _) in t.char_indices().map(|(i, c)| (i + c.len_utf8(), c)) {
        if let Ok(v) = t[..i].parse::<f64>() {
            best = v;
            len = i;
        }
    }
    if len == 0 {
        0.0
    } else {
        best
    }
}
