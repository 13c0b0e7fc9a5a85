//! A lightweight Rust tokenizer: just enough lexical structure for the
//! parser — identifiers, punctuation, literals — with string, comment
//! and attribute awareness so nothing matches inside a string literal
//! or a doc comment, comments reach the `audit:allow` grammar, and
//! `#[cfg(test)]` / `#[test]` regions can be located without pulling
//! in `syn` (the workspace
//! builds offline from vendored stand-ins; the auditor stays
//! dependency-free).

/// Kinds of tokens the parser cares about. Literals keep no text —
/// their only job is to *not* be identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// String, raw-string, byte-string or char literal.
    Literal,
    /// Numeric literal.
    Number,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One token with enough position info for diagnostics.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    /// Identifier text; empty for non-identifiers.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A `//` or `/* */` comment, carried separately from the token stream
/// so the `audit:allow` grammar can be parsed out of it.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The lexed file: code tokens plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenize `src`. Unterminated literals or comments are tolerated
/// (the rest of the file is swallowed into the literal): the auditor
/// must never panic on weird-but-compiling source, and rustc rejects
/// genuinely unterminated ones before we ever see them.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! bump_lines {
        ($range:expr) => {
            line += bytes[$range].iter().filter(|&&b| b == b'\n').count() as u32
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line,
                });
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: src[start..i.min(src.len())].to_string(),
                    line: start_line,
                });
            }
            b'"' => {
                let end = skip_string(bytes, i);
                // Capture the line *before* bumping past the literal's
                // newlines: a multi-line string tokenizes at its start
                // line, not its end line (the raw-string arm below
                // already did this; this arm used to report the end).
                let tok_line = line;
                bump_lines!(i..end);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: tok_line,
                });
                i = end;
            }
            b'r' | b'b' if is_raw_or_byte_string(bytes, i) => {
                let end = skip_raw_or_byte_string(bytes, i);
                let tok_line = line;
                bump_lines!(i..end);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: tok_line,
                });
                i = end;
            }
            b'\'' => {
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime.
                let (end, is_lifetime) = skip_char_or_lifetime(bytes, i);
                out.tokens.push(Token {
                    kind: if is_lifetime {
                        TokKind::Lifetime
                    } else {
                        TokKind::Literal
                    },
                    text: String::new(),
                    line,
                });
                bump_lines!(i..end);
                i = end;
            }
            b'0'..=b'9' => {
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    // Stop a number at `..` (range) or `.method()`.
                    if bytes[i] == b'.' && (i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_digit())
                    {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Number,
                    text: String::new(),
                    line,
                });
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokKind::Punct(b as char),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Skip a `"..."` string starting at `i` (which points at the quote);
/// returns the index just past the closing quote.
fn skip_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// Is `r"`, `r#`, `b"`, `br"`, `br#` at position `i` the start of a
/// raw/byte string (as opposed to an identifier starting with r/b)?
fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b'r' {
        j += 1;
        while j < bytes.len() && bytes[j] == b'#' {
            j += 1;
        }
    }
    j > i && j < bytes.len() && bytes[j] == b'"'
}

fn skip_raw_or_byte_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    let mut hashes = 0usize;
    if j < bytes.len() && bytes[j] == b'r' {
        j += 1;
        while j < bytes.len() && bytes[j] == b'#' {
            hashes += 1;
            j += 1;
        }
    }
    if j >= bytes.len() || bytes[j] != b'"' {
        return j; // plain byte string `b"` handled below
    }
    j += 1;
    if hashes == 0 && bytes[i] == b'b' && bytes[i + 1] == b'"' {
        // b"..." behaves like a normal string (escapes allowed).
        return skip_string(bytes, i + 1);
    }
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = 0usize;
            while k < hashes && j + 1 + k < bytes.len() && bytes[j + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                return j + 1 + hashes;
            }
        }
        j += 1;
    }
    bytes.len()
}

/// Distinguish `'a'` / `'\n'` (char literal) from `'a` (lifetime).
/// Returns (index past the token, is_lifetime).
fn skip_char_or_lifetime(bytes: &[u8], i: usize) -> (usize, bool) {
    let mut j = i + 1;
    if j >= bytes.len() {
        return (j, false);
    }
    if bytes[j] == b'\\' {
        // Escaped char literal.
        j += 2;
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        return ((j + 1).min(bytes.len()), false);
    }
    if bytes[j].is_ascii_alphabetic() || bytes[j] == b'_' {
        // Could be 'x' (char) or 'xyz (lifetime): a lifetime has no
        // closing quote right after its (possibly multi-char) ident.
        let mut k = j;
        while k < bytes.len() && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'_') {
            k += 1;
        }
        if k < bytes.len() && bytes[k] == b'\'' && k == j + 1 {
            return (k + 1, false); // 'x'
        }
        return (k, true); // 'lifetime
    }
    // Punctuation char literal like '(' or ' '.
    while j < bytes.len() && bytes[j] != b'\'' {
        j += 1;
    }
    ((j + 1).min(bytes.len()), false)
}

/// Byte-offset-free test-region finder: returns, per token index,
/// whether the token sits inside a `#[cfg(test)] mod`, `#[test] fn` or
/// `#[bench] fn` body. Works on the token stream alone: an attribute
/// sets a pending flag that sticks to the next `{ ... }` body at the
/// depth where the attribute appeared.
pub fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut depth: i32 = 0;
    // Open test regions: region is active while depth > entry depth.
    let mut region_stack: Vec<i32> = Vec::new();
    let mut pending_attr = false;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        // Attribute recognition: `#` `[` ...
        if t.is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Scan the attribute's bracket group.
            let mut j = i + 2;
            let mut bdepth = 1i32;
            let mut is_test_attr = false;
            let mut first = true;
            let mut attr_name = String::new();
            while j < tokens.len() && bdepth > 0 {
                match tokens[j].kind {
                    TokKind::Punct('[') => bdepth += 1,
                    TokKind::Punct(']') => bdepth -= 1,
                    TokKind::Ident => {
                        if first {
                            attr_name = tokens[j].text.clone();
                            first = false;
                        } else if attr_name == "cfg" && tokens[j].text == "test" {
                            is_test_attr = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if attr_name == "test" || attr_name == "bench" {
                is_test_attr = true;
            }
            if is_test_attr {
                pending_attr = true;
            }
            // Attribute tokens inherit the current region state.
            in_test[i..j].fill(!region_stack.is_empty());
            i = j;
            continue;
        }
        match t.kind {
            TokKind::Punct('{') => {
                if pending_attr {
                    region_stack.push(depth);
                    pending_attr = false;
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                if let Some(&entry) = region_stack.last() {
                    if depth <= entry {
                        region_stack.pop();
                    }
                }
            }
            TokKind::Punct(';') => {
                // `#[cfg(test)] mod foo;` — body lives elsewhere.
                pending_attr = false;
            }
            _ => {}
        }
        in_test[i] = !region_stack.is_empty() || (pending_attr && t.is_punct('{'));
        i += 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* SystemTime in a block /* nested */ comment */
            let s = "Instant::now() in a string";
            let r = r#"thread_rng in a raw string"#;
            let c = 'x';
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"thread_rng".to_string()));

        // Byte-raw strings with more than one hash must not resume
        // tokenization mid-literal: the `"#` inside the literal is not
        // its terminator (that needs `"##`).
        let multi_hash = "let b = br##\"OsRng \"# still inside\"##; let real = SystemTime::now();";
        let ids = idents(multi_hash);
        assert!(!ids.contains(&"OsRng".to_string()), "{ids:?}");
        assert!(ids.contains(&"SystemTime".to_string()), "{ids:?}");

        // An unterminated raw string at EOF swallows the rest of the
        // file rather than tokenizing its tail as code.
        let unterminated = "let ok = thread_rng; let r = r#\"HashMap never closes";
        let ids = idents(unterminated);
        assert!(ids.contains(&"thread_rng".to_string()), "{ids:?}");
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
    }

    #[test]
    fn multi_line_string_token_reports_start_line() {
        let src = "let a = \"line one\nline two\nline three\";\nlet t = SystemTime::now();\n";
        let lexed = lex(src);
        let lit = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Literal)
            .expect("string literal token");
        assert_eq!(lit.line, 1, "multi-line string starts on line 1");
        let st = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("SystemTime"))
            .expect("SystemTime token");
        assert_eq!(st.line, 4, "code after the string keeps true lines");
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let ids = idents(src);
        // Lifetime idents are Lifetime tokens, not Ident tokens.
        assert_eq!(
            ids,
            vec!["fn", "f", "x", "str", "str", "x"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn comments_carry_lines() {
        let lexed = lex("let a = 1;\n// audit:allow(wall-clock): because\nlet b = 2;\n");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("audit:allow"));
    }

    #[test]
    fn cfg_test_region_is_detected() {
        let src = r#"
            fn prod() { io().unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { io().unwrap(); }
            }
            fn prod2() {}
        "#;
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        let mut in_test_idents = Vec::new();
        let mut out_test_idents = Vec::new();
        for (t, &r) in lexed.tokens.iter().zip(&regions) {
            if t.kind == TokKind::Ident {
                if r {
                    in_test_idents.push(t.text.clone());
                } else {
                    out_test_idents.push(t.text.clone());
                }
            }
        }
        assert!(in_test_idents.contains(&"t".to_string()));
        assert!(out_test_idents.contains(&"prod".to_string()));
        assert!(out_test_idents.contains(&"prod2".to_string()));
    }

    #[test]
    fn test_fn_region_is_detected() {
        let src = r#"
            #[test]
            fn covered() { parse().unwrap(); }
            fn uncovered() { parse().unwrap(); }
        "#;
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        let pairs: Vec<(String, bool)> = lexed
            .tokens
            .iter()
            .zip(&regions)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(t, &r)| (t.text.clone(), r))
            .collect();
        assert_eq!(pairs.len(), 2);
        assert!(
            pairs[0].1,
            "unwrap inside #[test] fn must be in a test region"
        );
        assert!(!pairs[1].1, "unwrap outside must not");
    }
}
