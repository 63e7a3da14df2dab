//! # clio-net — framed TCP front-end for the mapping shell
//!
//! A **std-only** networked session service in three parts:
//!
//! * [`frame`] — the wire format: every request and response is one
//!   frame of `version byte + u32 big-endian payload length + UTF-8
//!   payload`. Request payloads are shell command lines; response
//!   payloads are the shell's output text. A frame is sent in one
//!   vectored write, and one decoder reads frames for both ends.
//! * [`server`] — a `TcpListener` front-end running one thread per
//!   connection, capped by [`ServerConfig::max_conns`], each reading
//!   its socket through one buffered reader, with per-connection idle
//!   timeouts and graceful shutdown. The server is generic over a
//!   [`Handler`] so this crate stays independent of the engine;
//!   `clio-cli` supplies the handler that parses and dispatches
//!   commands.
//! * [`client`] — a small blocking client used by `clio connect`,
//!   tests, and experiments to drive a server end-to-end.
//!
//! Protocol details, concurrency model, and the degradation matrix are
//! documented in `docs/service.md`.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::Client;
pub use frame::{read_frame, write_frame, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{Handler, Response, Server, ServerConfig, ShutdownHandle};
