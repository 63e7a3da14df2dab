//! Scalar function registry.
//!
//! Value correspondences (paper Def 3.1) are *functions over source
//! attribute values*. The registry holds the built-in functions the paper
//! mentions (`concat` for `Kids.contactPh`, arithmetic for
//! `Kids.FamilyIncome`) and accepts user-registered Rust closures so
//! applications can plug in arbitrary transformation functions.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// A scalar function implementation.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// Arity specification for a registered function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n` arguments.
    Exact(usize),
    /// At least `n` arguments.
    AtLeast(usize),
}

impl Arity {
    fn accepts(self, n: usize) -> bool {
        match self {
            Arity::Exact(k) => n == k,
            Arity::AtLeast(k) => n >= k,
        }
    }

    fn expected(self) -> usize {
        match self {
            Arity::Exact(k) | Arity::AtLeast(k) => k,
        }
    }
}

/// A registry mapping lowercase function names to implementations.
#[derive(Clone)]
pub struct FuncRegistry {
    funcs: HashMap<String, (Arity, ScalarFn)>,
}

impl fmt::Debug for FuncRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.funcs.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("FuncRegistry")
            .field("functions", &names)
            .finish()
    }
}

impl Default for FuncRegistry {
    fn default() -> Self {
        FuncRegistry::with_builtins()
    }
}

impl FuncRegistry {
    /// An empty registry (no builtins).
    #[must_use]
    pub fn empty() -> FuncRegistry {
        FuncRegistry {
            funcs: HashMap::new(),
        }
    }

    /// The standard registry with all built-in functions.
    #[must_use]
    pub fn with_builtins() -> FuncRegistry {
        let mut r = FuncRegistry::empty();
        r.register("concat", Arity::AtLeast(1), Arc::new(builtin_concat));
        r.register("coalesce", Arity::AtLeast(1), Arc::new(builtin_coalesce));
        r.register("upper", Arity::Exact(1), Arc::new(builtin_upper));
        r.register("lower", Arity::Exact(1), Arc::new(builtin_lower));
        r.register("length", Arity::Exact(1), Arc::new(builtin_length));
        r.register("abs", Arity::Exact(1), Arc::new(builtin_abs));
        r.register("substr", Arity::Exact(3), Arc::new(builtin_substr));
        r.register("nullif", Arity::Exact(2), Arc::new(builtin_nullif));
        r.register("trim", Arity::Exact(1), Arc::new(builtin_trim));
        r.register("replace", Arity::Exact(3), Arc::new(builtin_replace));
        r.register(
            "starts_with",
            Arity::Exact(2),
            Arc::new(builtin_starts_with),
        );
        r.register("ends_with", Arity::Exact(2), Arc::new(builtin_ends_with));
        r.register("lpad", Arity::Exact(3), Arc::new(builtin_lpad));
        r.register("to_int", Arity::Exact(1), Arc::new(builtin_to_int));
        r.register("to_str", Arity::Exact(1), Arc::new(builtin_to_str));
        r
    }

    /// Register (or replace) a function under `name` (case-insensitive).
    pub fn register(&mut self, name: &str, arity: Arity, f: ScalarFn) {
        self.funcs.insert(name.to_ascii_lowercase(), (arity, f));
    }

    /// Is `name` registered?
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.funcs.contains_key(&name.to_ascii_lowercase())
    }

    /// Call a function by name, validating arity.
    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value> {
        let key = name.to_ascii_lowercase();
        let (arity, f) = self
            .funcs
            .get(&key)
            .ok_or_else(|| Error::UnknownFunction(name.to_owned()))?;
        if !arity.accepts(args.len()) {
            return Err(Error::FunctionArity {
                name: name.to_owned(),
                expected: arity.expected(),
                got: args.len(),
            });
        }
        f(args)
    }
}

fn string_arg(name: &str, v: &Value) -> Result<String> {
    match v {
        Value::Str(s) => Ok(s.to_string()),
        Value::Int(i) => Ok(i.to_string()),
        Value::Float(f) => Ok(f.to_string()),
        Value::Bool(b) => Ok(b.to_string()),
        Value::Null => Err(Error::TypeMismatch(format!("{name}: unexpected null"))),
    }
}

/// SQL-style `concat`: null if **any** argument is null, otherwise the
/// string concatenation of all arguments. The any-null rule is what makes
/// the paper's `contactPh` correspondence produce a null target value for
/// associations that do not cover `PhoneDir`.
fn builtin_concat(args: &[Value]) -> Result<Value> {
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let mut out = String::new();
    for a in args {
        out.push_str(&string_arg("concat", a)?);
    }
    Ok(Value::str(out))
}

fn builtin_coalesce(args: &[Value]) -> Result<Value> {
    Ok(args
        .iter()
        .find(|v| !v.is_null())
        .cloned()
        .unwrap_or(Value::Null))
}

fn builtin_upper(args: &[Value]) -> Result<Value> {
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::str(s.to_uppercase())),
        v => Err(Error::TypeMismatch(format!(
            "upper: expected string, got {v}"
        ))),
    }
}

fn builtin_lower(args: &[Value]) -> Result<Value> {
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::str(s.to_lowercase())),
        v => Err(Error::TypeMismatch(format!(
            "lower: expected string, got {v}"
        ))),
    }
}

fn builtin_length(args: &[Value]) -> Result<Value> {
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
        v => Err(Error::TypeMismatch(format!(
            "length: expected string, got {v}"
        ))),
    }
}

fn builtin_abs(args: &[Value]) -> Result<Value> {
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => Ok(Value::Int(i.abs())),
        Value::Float(f) => Ok(Value::Float(f.abs())),
        v => Err(Error::TypeMismatch(format!(
            "abs: expected number, got {v}"
        ))),
    }
}

/// `substr(s, start, len)` with 1-based `start`, SQL style.
fn builtin_substr(args: &[Value]) -> Result<Value> {
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let s = match &args[0] {
        Value::Str(s) => s,
        v => {
            return Err(Error::TypeMismatch(format!(
                "substr: expected string, got {v}"
            )))
        }
    };
    let (start, len) = match (&args[1], &args[2]) {
        (Value::Int(a), Value::Int(b)) => (*a, *b),
        _ => {
            return Err(Error::TypeMismatch(
                "substr: start/len must be integers".into(),
            ))
        }
    };
    if start < 1 || len < 0 {
        return Err(Error::Invalid(
            "substr: start must be >= 1 and len >= 0".into(),
        ));
    }
    let chars: Vec<char> = s.chars().collect();
    let from = (start - 1) as usize;
    let to = (from + len as usize).min(chars.len());
    if from >= chars.len() {
        return Ok(Value::str(""));
    }
    Ok(Value::str(chars[from..to].iter().collect::<String>()))
}

fn builtin_trim(args: &[Value]) -> Result<Value> {
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::str(s.trim())),
        v => Err(Error::TypeMismatch(format!(
            "trim: expected string, got {v}"
        ))),
    }
}

/// `replace(s, from, to)` — substring replacement, null-propagating.
fn builtin_replace(args: &[Value]) -> Result<Value> {
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match (&args[0], &args[1], &args[2]) {
        (Value::Str(s), Value::Str(from), Value::Str(to)) => Ok(Value::str(s.replace(&**from, to))),
        _ => Err(Error::TypeMismatch(
            "replace: expected three strings".into(),
        )),
    }
}

fn builtin_starts_with(args: &[Value]) -> Result<Value> {
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match (&args[0], &args[1]) {
        (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(s.starts_with(&**p))),
        _ => Err(Error::TypeMismatch(
            "starts_with: expected two strings".into(),
        )),
    }
}

fn builtin_ends_with(args: &[Value]) -> Result<Value> {
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match (&args[0], &args[1]) {
        (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(s.ends_with(&**p))),
        _ => Err(Error::TypeMismatch(
            "ends_with: expected two strings".into(),
        )),
    }
}

/// `lpad(s, len, pad)` — left-pad with `pad` to `len` characters (never
/// truncates below the original string).
fn builtin_lpad(args: &[Value]) -> Result<Value> {
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let (s, len, pad) = match (&args[0], &args[1], &args[2]) {
        (Value::Str(s), Value::Int(l), Value::Str(p)) => (s, *l, p),
        _ => return Err(Error::TypeMismatch("lpad: expected (str, int, str)".into())),
    };
    if pad.is_empty() || len < 0 {
        return Err(Error::Invalid(
            "lpad: pad must be non-empty and len >= 0".into(),
        ));
    }
    let want = len as usize;
    let have = s.chars().count();
    if have >= want {
        return Ok(Value::Str(s.clone()));
    }
    let mut out = String::new();
    let pad_chars: Vec<char> = pad.chars().collect();
    let mut i = 0;
    while out.chars().count() < want - have {
        out.push(pad_chars[i % pad_chars.len()]);
        i += 1;
    }
    out.push_str(s);
    Ok(Value::str(out))
}

/// `to_int(v)` — parse a string / truncate a float to an integer; null on
/// unparseable strings (lenient, SQL CAST style for dirty source data).
fn builtin_to_int(args: &[Value]) -> Result<Value> {
    Ok(match &args[0] {
        Value::Null => Value::Null,
        Value::Int(i) => Value::Int(*i),
        Value::Float(f) => Value::Int(*f as i64),
        Value::Bool(b) => Value::Int(i64::from(*b)),
        Value::Str(s) => match s.trim().parse::<i64>() {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Null,
        },
    })
}

fn builtin_to_str(args: &[Value]) -> Result<Value> {
    Ok(match &args[0] {
        Value::Null => Value::Null,
        v => Value::str(v.to_string()),
    })
}

fn builtin_nullif(args: &[Value]) -> Result<Value> {
    if args[0].sql_eq(&args[1]).passes() {
        Ok(Value::Null)
    } else {
        Ok(args[0].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    #[test]
    fn concat_joins_strings_and_numbers() {
        let v = reg()
            .call("concat", &["home".into(), ",".into(), "555-0100".into()])
            .unwrap();
        assert_eq!(v, Value::str("home,555-0100"));
        assert_eq!(
            reg().call("concat", &["x".into(), 5i64.into()]).unwrap(),
            Value::str("x5")
        );
    }

    #[test]
    fn concat_is_null_propagating() {
        let v = reg().call("concat", &["home".into(), Value::Null]).unwrap();
        assert_eq!(v, Value::Null);
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let v = reg()
            .call(
                "coalesce",
                &[Value::Null, Value::Null, "x".into(), "y".into()],
            )
            .unwrap();
        assert_eq!(v, Value::str("x"));
        assert_eq!(reg().call("coalesce", &[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn case_functions() {
        assert_eq!(
            reg().call("upper", &["maya".into()]).unwrap(),
            Value::str("MAYA")
        );
        assert_eq!(
            reg().call("lower", &["MAYA".into()]).unwrap(),
            Value::str("maya")
        );
        assert_eq!(reg().call("upper", &[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn length_and_abs() {
        assert_eq!(
            reg().call("length", &["Maya".into()]).unwrap(),
            Value::Int(4)
        );
        assert_eq!(reg().call("abs", &[(-7i64).into()]).unwrap(), Value::Int(7));
        assert_eq!(
            reg().call("abs", &[(-1.5f64).into()]).unwrap(),
            Value::Float(1.5)
        );
    }

    #[test]
    fn substr_is_one_based_and_clamped() {
        assert_eq!(
            reg()
                .call("substr", &["schoolbus".into(), 1i64.into(), 6i64.into()])
                .unwrap(),
            Value::str("school")
        );
        assert_eq!(
            reg()
                .call("substr", &["bus".into(), 2i64.into(), 10i64.into()])
                .unwrap(),
            Value::str("us")
        );
        assert_eq!(
            reg()
                .call("substr", &["bus".into(), 9i64.into(), 2i64.into()])
                .unwrap(),
            Value::str("")
        );
        assert!(reg()
            .call("substr", &["bus".into(), 0i64.into(), 1i64.into()])
            .is_err());
    }

    #[test]
    fn nullif_blanks_matching_values() {
        assert_eq!(
            reg().call("nullif", &["x".into(), "x".into()]).unwrap(),
            Value::Null
        );
        assert_eq!(
            reg().call("nullif", &["x".into(), "y".into()]).unwrap(),
            Value::str("x")
        );
    }

    #[test]
    fn string_utilities() {
        assert_eq!(
            reg().call("trim", &["  x  ".into()]).unwrap(),
            Value::str("x")
        );
        assert_eq!(
            reg()
                .call("replace", &["555-0101".into(), "-".into(), ".".into()])
                .unwrap(),
            Value::str("555.0101")
        );
        assert_eq!(
            reg()
                .call("starts_with", &["Maya".into(), "Ma".into()])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            reg()
                .call("ends_with", &["Maya".into(), "Ma".into()])
                .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(reg().call("trim", &[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn lpad_pads_and_preserves_long_strings() {
        assert_eq!(
            reg()
                .call("lpad", &["7".into(), 3i64.into(), "0".into()])
                .unwrap(),
            Value::str("007")
        );
        assert_eq!(
            reg()
                .call("lpad", &["12345".into(), 3i64.into(), "0".into()])
                .unwrap(),
            Value::str("12345")
        );
        assert!(reg()
            .call("lpad", &["x".into(), 3i64.into(), "".into()])
            .is_err());
    }

    #[test]
    fn casts_are_lenient() {
        assert_eq!(
            reg().call("to_int", &[" 42 ".into()]).unwrap(),
            Value::Int(42)
        );
        assert_eq!(reg().call("to_int", &["4x2".into()]).unwrap(), Value::Null);
        assert_eq!(
            reg().call("to_int", &[Value::Float(3.9)]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            reg().call("to_str", &[42i64.into()]).unwrap(),
            Value::str("42")
        );
        assert_eq!(reg().call("to_str", &[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn unknown_function_and_arity_errors() {
        assert!(matches!(
            reg().call("nope", &[]),
            Err(Error::UnknownFunction(_))
        ));
        assert!(matches!(
            reg().call("upper", &["a".into(), "b".into()]),
            Err(Error::FunctionArity { .. })
        ));
    }

    #[test]
    fn names_are_case_insensitive() {
        assert_eq!(reg().call("UPPER", &["x".into()]).unwrap(), Value::str("X"));
    }

    #[test]
    fn custom_functions_can_be_registered() {
        let mut r = reg();
        r.register(
            "double",
            Arity::Exact(1),
            Arc::new(|args: &[Value]| args[0].add(&args[0])),
        );
        assert_eq!(r.call("double", &[21i64.into()]).unwrap(), Value::Int(42));
        assert!(r.contains("double"));
    }
}
