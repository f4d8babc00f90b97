//! Field access on the vendored `serde::Value` tree, which has no typed
//! deserialization: every document this benchmark reads (pass specs,
//! pass results, serve replies, result files) is decoded through these.

use serde::Value;

/// Looks up `key` in a JSON object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        _ => None,
    }
}

pub fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::UInt(u) => Some(u),
        Value::Int(i) => u64::try_from(i).ok(),
        _ => None,
    }
}

pub fn f64_at(v: &Value, key: &str) -> Result<f64, String> {
    get(v, key)
        .and_then(as_f64)
        .ok_or_else(|| format!("missing number {key:?}"))
}

pub fn u64_at(v: &Value, key: &str) -> Result<u64, String> {
    get(v, key)
        .and_then(as_u64)
        .ok_or_else(|| format!("missing integer {key:?}"))
}

pub fn str_at<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match get(v, key) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(format!("missing string {key:?}")),
    }
}

pub fn bool_at(v: &Value, key: &str) -> Result<bool, String> {
    match get(v, key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool {key:?}")),
    }
}

pub fn seq_at<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match get(v, key) {
        Some(Value::Seq(items)) => Ok(items),
        _ => Err(format!("missing list {key:?}")),
    }
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("rendering a Value tree cannot fail")
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}
