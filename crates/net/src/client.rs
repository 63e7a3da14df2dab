//! A small blocking client for the framed protocol, used by
//! `clio connect`, tests, and experiments.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use crate::frame;

/// One connection to a running server. Requests are strictly
/// send-one-frame, read-one-frame: each request is one write on the
/// socket, and its response one read through the connection's buffered
/// reader.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server address (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Send one command line and block for the response frame.
    /// `Ok(None)` means the server closed the connection.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and malformed response frames
    /// (`InvalidData`).
    pub fn request(&mut self, line: &str) -> io::Result<Option<String>> {
        frame::write_frame(&mut self.reader.get_ref(), line)?;
        self.read_response()
    }

    /// Block for one response frame without sending anything — for
    /// server-initiated messages like the idle-timeout notice.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and malformed response frames.
    pub fn read_response(&mut self) -> io::Result<Option<String>> {
        frame::read_frame(&mut self.reader, frame::MAX_FRAME_BYTES)
    }
}
