//! The builtin "OS layer" — implementations of the external functions.
//!
//! In the paper, system calls and closed library routines are *external
//! functions*: the compiler cannot see their bodies, cannot inline them,
//! and must assume the worst about what they call (§2.5). This module is
//! the runtime behind those externs: byte-stream file I/O over in-memory
//! named files, program arguments, a heap, and process exit.

use impact_il::ExternDecl;

use crate::error::VmError;
use crate::fault::FaultPlan;
use crate::memory::Memory;

/// An in-memory input file handed to a program run (the "representative
/// input" of the paper's profiling methodology).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedFile {
    /// Path the program opens it by.
    pub name: String,
    /// Contents.
    pub bytes: Vec<u8>,
}

impl NamedFile {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, bytes: impl Into<Vec<u8>>) -> Self {
        NamedFile {
            name: name.into(),
            bytes: bytes.into(),
        }
    }
}

/// The fixed set of VM builtins an `extern` declaration may bind to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    /// `int __open(char *path)` — open a named input for reading.
    Open,
    /// `int __creat(char *path)` — create a named output for writing.
    Creat,
    /// `int __close(int fd)`.
    Close,
    /// `int __fgetc(int fd)` — next byte or -1 at end of file.
    Fgetc,
    /// `int __fputc(int c, int fd)` — write one byte; returns `c`.
    Fputc,
    /// `int __fread(int fd, char *buf, int n)` — block read, like
    /// `read(2)`; returns the number of bytes read (0 at end of file).
    Fread,
    /// `int __fwrite(int fd, char *buf, int n)` — block write; returns
    /// `n`.
    Fwrite,
    /// `int __nargs(void)` — number of program arguments.
    Nargs,
    /// `int __arg(int i, char *buf)` — copy argument `i` (NUL-terminated)
    /// into `buf`; returns its length, or -1 if out of range.
    Arg,
    /// `int __ninputs(void)` — number of input files.
    Ninputs,
    /// `int __input_name(int i, char *buf)` — copy the name of input `i`;
    /// returns its length, or -1 if out of range.
    InputName,
    /// `long __malloc(long size)`.
    Malloc,
    /// `void __free(long ptr)`.
    Free,
    /// `void __exit(int code)`.
    Exit,
    /// `void __abort(void)`.
    Abort,
    /// `void __putn(long n)` — write `n` in decimal to stdout.
    Putn,
}

impl Builtin {
    /// Resolves an extern declaration to a builtin, checking the
    /// signature.
    pub fn resolve(decl: &ExternDecl) -> Result<Builtin, VmError> {
        let (b, params, has_ret) = match decl.name.as_str() {
            "__open" => (Builtin::Open, 1, true),
            "__creat" => (Builtin::Creat, 1, true),
            "__close" => (Builtin::Close, 1, true),
            "__fgetc" => (Builtin::Fgetc, 1, true),
            "__fputc" => (Builtin::Fputc, 2, true),
            "__fread" => (Builtin::Fread, 3, true),
            "__fwrite" => (Builtin::Fwrite, 3, true),
            "__nargs" => (Builtin::Nargs, 0, true),
            "__arg" => (Builtin::Arg, 2, true),
            "__ninputs" => (Builtin::Ninputs, 0, true),
            "__input_name" => (Builtin::InputName, 2, true),
            "__malloc" => (Builtin::Malloc, 1, true),
            "__free" => (Builtin::Free, 1, false),
            "__exit" => (Builtin::Exit, 1, false),
            "__abort" => (Builtin::Abort, 0, false),
            "__putn" => (Builtin::Putn, 1, false),
            _ => {
                return Err(VmError::UnknownExtern {
                    name: decl.name.clone(),
                    func: String::new(),
                })
            }
        };
        if decl.num_params != params || decl.has_ret != has_ret {
            return Err(VmError::BadBuiltinCall {
                name: decl.name.clone(),
                reason: format!(
                    "declaration has {} params (ret: {}), builtin wants {} (ret: {})",
                    decl.num_params, decl.has_ret, params, has_ret
                ),
                func: String::new(),
            });
        }
        Ok(b)
    }
}

/// What a builtin call did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuiltinOutcome {
    /// Normal completion with an optional return value.
    Value(Option<i64>),
    /// The program requested termination with this exit code.
    Exit(i64),
}

#[derive(Clone, Debug)]
enum OpenFile {
    Read { input: usize, pos: usize },
    Write { name: String, buf: Vec<u8> },
    Closed,
}

/// Per-run OS state: the file table, output buffers, and arguments.
#[derive(Clone, Debug)]
pub struct Os {
    inputs: Vec<NamedFile>,
    args: Vec<String>,
    fds: Vec<OpenFile>,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    /// Contents of written files whose fds were closed (a close must not
    /// lose the data).
    completed: Vec<(String, Vec<u8>)>,
    /// Armed failpoints (`vm:oom`, ...); empty by default.
    fault: FaultPlan,
}

impl Os {
    /// Creates the OS state for one run. If an input is named `stdin` it
    /// is pre-opened as fd 0.
    pub fn new(inputs: Vec<NamedFile>, args: Vec<String>) -> Self {
        let stdin_idx = inputs.iter().position(|f| f.name == "stdin");
        let fds = vec![
            match stdin_idx {
                Some(i) => OpenFile::Read { input: i, pos: 0 },
                None => OpenFile::Closed,
            },
            OpenFile::Write {
                name: "stdout".into(),
                buf: Vec::new(),
            },
            OpenFile::Write {
                name: "stderr".into(),
                buf: Vec::new(),
            },
        ];
        Os {
            inputs,
            args,
            fds,
            stdout: Vec::new(),
            stderr: Vec::new(),
            completed: Vec::new(),
            fault: FaultPlan::default(),
        }
    }

    /// Arms this OS layer with a fault plan (see [`FaultPlan`]); the
    /// interpreter threads [`crate::VmConfig::fault`] through here.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Appends finished write-file contents to the completed list,
    /// merging with an earlier close of the same name (a reopened file
    /// appends, which is all the benchmarks need).
    fn retire(&mut self, name: String, buf: Vec<u8>) {
        if name == "stdout" || name == "stderr" || buf.is_empty() {
            return;
        }
        if let Some((_, existing)) = self.completed.iter_mut().find(|(n, _)| *n == name) {
            existing.extend_from_slice(&buf);
        } else {
            self.completed.push((name, buf));
        }
    }

    /// Executes one builtin.
    pub fn call(
        &mut self,
        b: Builtin,
        args: &[i64],
        mem: &mut Memory,
        func: &str,
    ) -> Result<BuiltinOutcome, VmError> {
        use BuiltinOutcome::Value;
        Ok(match b {
            Builtin::Open => {
                let path = mem.read_cstr(args[0] as u64, func)?;
                let path = String::from_utf8_lossy(&path).into_owned();
                match self.inputs.iter().position(|f| f.name == path) {
                    Some(i) => {
                        let fd = self.alloc_fd(OpenFile::Read { input: i, pos: 0 });
                        Value(Some(fd))
                    }
                    None => Value(Some(-1)),
                }
            }
            Builtin::Creat => {
                let path = mem.read_cstr(args[0] as u64, func)?;
                let name = String::from_utf8_lossy(&path).into_owned();
                let fd = self.alloc_fd(OpenFile::Write {
                    name,
                    buf: Vec::new(),
                });
                Value(Some(fd))
            }
            Builtin::Close => {
                let fd = args[0];
                match usize::try_from(fd).ok().and_then(|i| self.fds.get_mut(i)) {
                    Some(slot) if !matches!(slot, OpenFile::Closed) => {
                        let old = std::mem::replace(slot, OpenFile::Closed);
                        if let OpenFile::Write { name, buf } = old {
                            self.retire(name, buf);
                        }
                        Value(Some(0))
                    }
                    _ => Value(Some(-1)),
                }
            }
            Builtin::Fgetc => {
                let fd = args[0] as usize;
                let inputs = &self.inputs;
                let v = match self.fds.get_mut(fd) {
                    Some(OpenFile::Read { input, pos }) => match inputs[*input].bytes.get(*pos) {
                        Some(&b) => {
                            *pos += 1;
                            b as i64
                        }
                        None => -1,
                    },
                    _ => -1,
                };
                Value(Some(v))
            }
            Builtin::Fputc => {
                let c = args[0] as u8;
                let fd = args[1] as usize;
                match self.fds.get_mut(fd) {
                    Some(OpenFile::Write { name, buf }) => {
                        if name == "stdout" {
                            self.stdout.push(c);
                        } else if name == "stderr" {
                            self.stderr.push(c);
                        } else {
                            buf.push(c);
                        }
                        Value(Some(c as i64))
                    }
                    _ => Value(Some(-1)),
                }
            }
            Builtin::Fread => {
                let fd = args[0] as usize;
                let buf = args[1] as u64;
                let want = args[2].max(0) as usize;
                let chunk: Vec<u8> = match self.fds.get_mut(fd) {
                    Some(OpenFile::Read { input, pos }) => {
                        let bytes = &self.inputs[*input].bytes;
                        let end = (*pos + want).min(bytes.len());
                        let c = bytes[*pos..end].to_vec();
                        *pos = end;
                        c
                    }
                    _ => Vec::new(),
                };
                for (i, &b) in chunk.iter().enumerate() {
                    mem.store(buf + i as u64, b as i64, impact_il::Width::W1, func)?;
                }
                Value(Some(chunk.len() as i64))
            }
            Builtin::Fwrite => {
                let fd = args[0] as usize;
                let buf = args[1] as u64;
                let n = args[2].max(0) as usize;
                let mut bytes = Vec::with_capacity(n);
                for i in 0..n {
                    bytes.push(mem.load(buf + i as u64, impact_il::Width::W1, false, func)? as u8);
                }
                match self.fds.get_mut(fd) {
                    Some(OpenFile::Write { name, buf: wbuf }) => {
                        if name == "stdout" {
                            self.stdout.extend_from_slice(&bytes);
                        } else if name == "stderr" {
                            self.stderr.extend_from_slice(&bytes);
                        } else {
                            wbuf.extend_from_slice(&bytes);
                        }
                        Value(Some(n as i64))
                    }
                    _ => Value(Some(-1)),
                }
            }
            Builtin::Nargs => Value(Some(self.args.len() as i64)),
            Builtin::Arg => {
                let i = args[0];
                match usize::try_from(i).ok().and_then(|i| self.args.get(i)) {
                    Some(a) => {
                        let bytes = a.as_bytes().to_vec();
                        mem.write_cstr(args[1] as u64, &bytes, func)?;
                        Value(Some(bytes.len() as i64))
                    }
                    None => Value(Some(-1)),
                }
            }
            Builtin::Ninputs => Value(Some(self.inputs.len() as i64)),
            Builtin::InputName => {
                let i = args[0];
                match usize::try_from(i).ok().and_then(|i| self.inputs.get(i)) {
                    Some(f) => {
                        let bytes = f.name.as_bytes().to_vec();
                        mem.write_cstr(args[1] as u64, &bytes, func)?;
                        Value(Some(bytes.len() as i64))
                    }
                    None => Value(Some(-1)),
                }
            }
            Builtin::Malloc => {
                let size = args[0].max(0) as u64;
                if self.fault.should_fail("vm:oom") {
                    return Err(VmError::OutOfMemory {
                        requested: size,
                        func: func.to_owned(),
                    });
                }
                match mem.malloc(size) {
                    Ok(addr) => Value(Some(addr as i64)),
                    // C convention: allocation failure returns NULL.
                    Err(VmError::OutOfMemory { .. }) => Value(Some(0)),
                    Err(e) => return Err(e),
                }
            }
            Builtin::Free => {
                mem.free(args[0] as u64);
                Value(None)
            }
            Builtin::Exit => BuiltinOutcome::Exit(args[0]),
            Builtin::Abort => {
                return Err(VmError::Abort {
                    func: func.to_owned(),
                })
            }
            Builtin::Putn => {
                let s = args[0].to_string();
                self.stdout.extend_from_slice(s.as_bytes());
                Value(None)
            }
        })
    }

    fn alloc_fd(&mut self, f: OpenFile) -> i64 {
        // Reuse the lowest closed slot above the standard three.
        for (i, slot) in self.fds.iter_mut().enumerate().skip(3) {
            if matches!(slot, OpenFile::Closed) {
                *slot = f;
                return i as i64;
            }
        }
        self.fds.push(f);
        (self.fds.len() - 1) as i64
    }

    /// Everything written to stdout so far.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Everything written to stderr so far.
    pub fn stderr(&self) -> &[u8] {
        &self.stderr
    }

    /// Consumes the OS state, returning `(stdout, stderr, named files
    /// written via __creat)` — both files closed during the run and files
    /// still open at exit.
    #[allow(clippy::type_complexity)]
    pub fn into_outputs(mut self) -> (Vec<u8>, Vec<u8>, Vec<(String, Vec<u8>)>) {
        let open_writes: Vec<(String, Vec<u8>)> = std::mem::take(&mut self.fds)
            .into_iter()
            .filter_map(|f| match f {
                OpenFile::Write { name, buf } => Some((name, buf)),
                _ => None,
            })
            .collect();
        for (name, buf) in open_writes {
            self.retire(name, buf);
        }
        (self.stdout, self.stderr, self.completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_il::{Function, Global, Module};

    fn mem() -> Memory {
        let mut m = Module::new();
        m.add_function(Function::new("main", 0));
        m.add_global(Global::zeroed("scratch", 256, 8));
        Memory::new(&m, 4096, 4096)
    }

    #[test]
    fn open_read_eof_cycle() {
        let mut os = Os::new(vec![NamedFile::new("f.txt", b"ab".to_vec())], vec![]);
        let mut memory = mem();
        let path = memory.global_addr(impact_il::GlobalId(0));
        memory.write_cstr(path, b"f.txt", "t").unwrap();
        let BuiltinOutcome::Value(Some(fd)) = os
            .call(Builtin::Open, &[path as i64], &mut memory, "t")
            .unwrap()
        else {
            panic!()
        };
        assert!(fd >= 3);
        let mut read = Vec::new();
        loop {
            let BuiltinOutcome::Value(Some(c)) =
                os.call(Builtin::Fgetc, &[fd], &mut memory, "t").unwrap()
            else {
                panic!()
            };
            if c == -1 {
                break;
            }
            read.push(c as u8);
        }
        assert_eq!(read, b"ab");
    }

    #[test]
    fn open_missing_file_returns_minus_one() {
        let mut os = Os::new(vec![], vec![]);
        let mut memory = mem();
        let path = memory.global_addr(impact_il::GlobalId(0));
        memory.write_cstr(path, b"nope", "t").unwrap();
        assert_eq!(
            os.call(Builtin::Open, &[path as i64], &mut memory, "t")
                .unwrap(),
            BuiltinOutcome::Value(Some(-1))
        );
    }

    #[test]
    fn stdin_is_preopened_when_named() {
        let mut os = Os::new(vec![NamedFile::new("stdin", b"x".to_vec())], vec![]);
        let mut memory = mem();
        let BuiltinOutcome::Value(Some(c)) =
            os.call(Builtin::Fgetc, &[0], &mut memory, "t").unwrap()
        else {
            panic!()
        };
        assert_eq!(c, b'x' as i64);
    }

    #[test]
    fn stdout_and_created_files_are_captured() {
        let mut os = Os::new(vec![], vec![]);
        let mut memory = mem();
        os.call(Builtin::Fputc, &[b'A' as i64, 1], &mut memory, "t")
            .unwrap();
        os.call(Builtin::Putn, &[-42], &mut memory, "t").unwrap();
        let path = memory.global_addr(impact_il::GlobalId(0));
        memory.write_cstr(path, b"out.bin", "t").unwrap();
        let BuiltinOutcome::Value(Some(fd)) = os
            .call(Builtin::Creat, &[path as i64], &mut memory, "t")
            .unwrap()
        else {
            panic!()
        };
        os.call(Builtin::Fputc, &[7, fd], &mut memory, "t").unwrap();
        let (stdout, stderr, files) = os.into_outputs();
        assert_eq!(stdout, b"A-42".to_vec());
        assert!(stderr.is_empty());
        assert_eq!(files, vec![("out.bin".to_string(), vec![7u8])]);
    }

    #[test]
    fn args_are_copied_into_memory() {
        let mut os = Os::new(vec![], vec!["-v".into(), "pat".into()]);
        let mut memory = mem();
        assert_eq!(
            os.call(Builtin::Nargs, &[], &mut memory, "t").unwrap(),
            BuiltinOutcome::Value(Some(2))
        );
        let buf = memory.global_addr(impact_il::GlobalId(0));
        let BuiltinOutcome::Value(Some(len)) = os
            .call(Builtin::Arg, &[1, buf as i64], &mut memory, "t")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(len, 3);
        assert_eq!(memory.read_cstr(buf, "t").unwrap(), b"pat".to_vec());
        assert_eq!(
            os.call(Builtin::Arg, &[5, buf as i64], &mut memory, "t")
                .unwrap(),
            BuiltinOutcome::Value(Some(-1))
        );
    }

    #[test]
    fn exit_and_abort() {
        let mut os = Os::new(vec![], vec![]);
        let mut memory = mem();
        assert_eq!(
            os.call(Builtin::Exit, &[3], &mut memory, "t").unwrap(),
            BuiltinOutcome::Exit(3)
        );
        assert_eq!(
            os.call(Builtin::Abort, &[], &mut memory, "t"),
            Err(VmError::Abort { func: "t".into() })
        );
    }

    #[test]
    fn close_reuses_fd_slots() {
        let mut os = Os::new(
            vec![NamedFile::new("a", vec![]), NamedFile::new("b", vec![])],
            vec![],
        );
        let mut memory = mem();
        let path = memory.global_addr(impact_il::GlobalId(0));
        memory.write_cstr(path, b"a", "t").unwrap();
        let BuiltinOutcome::Value(Some(fd1)) = os
            .call(Builtin::Open, &[path as i64], &mut memory, "t")
            .unwrap()
        else {
            panic!()
        };
        os.call(Builtin::Close, &[fd1], &mut memory, "t").unwrap();
        memory.write_cstr(path, b"b", "t").unwrap();
        let BuiltinOutcome::Value(Some(fd2)) = os
            .call(Builtin::Open, &[path as i64], &mut memory, "t")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(fd1, fd2);
    }

    #[test]
    fn resolve_checks_signatures() {
        let ok = ExternDecl {
            name: "__fgetc".into(),
            num_params: 1,
            has_ret: true,
        };
        assert_eq!(Builtin::resolve(&ok).unwrap(), Builtin::Fgetc);
        let bad_sig = ExternDecl {
            name: "__fgetc".into(),
            num_params: 2,
            has_ret: true,
        };
        assert!(matches!(
            Builtin::resolve(&bad_sig),
            Err(VmError::BadBuiltinCall { .. })
        ));
        let unknown = ExternDecl {
            name: "__mystery".into(),
            num_params: 0,
            has_ret: false,
        };
        assert!(matches!(
            Builtin::resolve(&unknown),
            Err(VmError::UnknownExtern { .. })
        ));
    }

    #[test]
    fn fgetc_on_bad_fd_returns_eof() {
        let mut os = Os::new(vec![], vec![]);
        let mut memory = mem();
        assert_eq!(
            os.call(Builtin::Fgetc, &[99], &mut memory, "t").unwrap(),
            BuiltinOutcome::Value(Some(-1))
        );
        // fd 0 with no stdin input is closed.
        assert_eq!(
            os.call(Builtin::Fgetc, &[0], &mut memory, "t").unwrap(),
            BuiltinOutcome::Value(Some(-1))
        );
    }
}
