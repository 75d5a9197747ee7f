//! The one thing the lint reads from a `Cargo.toml`: the `[package]`
//! name, which P1 charges a crate directory's panic sites to. (What the
//! manifests may *depend on* is not policed here: the lockfiles are the
//! resolved truth, and root `tests/hermetic.rs` pins them to path-only
//! packages.)

/// Extract `name = "..."` from the `[package]` section, if any.
pub(crate) fn package_name(src: &str) -> Option<String> {
    let mut in_package = false;
    for line in src.lines() {
        let line = strip_toml_comment(line).trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return unquote(v.trim());
                }
            }
        }
    }
    None
}

/// Strip surrounding double quotes from a TOML string value.
fn unquote(v: &str) -> Option<String> {
    v.strip_prefix('"').and_then(|v| v.strip_suffix('"')).map(str::to_string)
}

/// Strip a `#` comment that is outside any quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_extraction() {
        let src = "[package]\nname = \"rpas-core\" # not rpas-x\nversion = \"0.1.0\"\n[dependencies]\n";
        assert_eq!(package_name(src).as_deref(), Some("rpas-core"));
        assert_eq!(package_name("[dependencies]\nname = \"1\"\n"), None);
    }
}
