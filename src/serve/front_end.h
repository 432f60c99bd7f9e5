/**
 * @file
 * The HTTP front door shared by mgx_serve's Server and mgx_fleet's
 * Proxy: one listening socket (unix path or TCP loopback), one
 * acceptor thread feeding a bounded admission deque, and a pool of
 * worker threads that each serve one connection's keep-alive request
 * loop at a time. The owner supplies a single handler that turns a
 * parsed request into a status and a JSON body; every socket,
 * framing and admission decision lives here.
 *
 *   acceptor   poll + accept4. A full deque answers 429 and a
 *              draining one 503, both without reading the request —
 *              the point of back-pressure is that a full server does
 *              no request work.
 *   workers    Pop a connection and serve requests until the peer
 *              closes, omits `Connection: keep-alive`, idles past
 *              keepAliveIdleMs, or sends garbage (400), too much
 *              (431) or nothing before the receive timeout (400). A
 *              handler exception answers 500.
 *
 * Graceful shutdown: stop accepting, drain the queued and in-flight
 * connections, join every thread, close (and unlink) the socket.
 *
 * The socket boundaries are the serve.accept.fail / serve.recv.fail /
 * serve.send.fail failpoints, so both front doors honor them.
 */

#ifndef MGX_SERVE_FRONT_END_H
#define MGX_SERVE_FRONT_END_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "http.h"
#include "metrics.h"

namespace mgx::serve {

/** Where to listen / connect: unix path if set, else TCP loopback. */
struct SocketAddress
{
    std::string unixPath; ///< non-empty selects AF_UNIX
    std::string host = "127.0.0.1";
    u16 port = 0; ///< 0 = kernel-assigned (see HttpFrontEnd::port())
};

/** The front door's settings; ServerOptions and ProxyOptions extend
 *  it with their own. */
struct FrontEndOptions
{
    SocketAddress listen;
    u32 workers = 2;                    ///< request handler threads
    std::size_t admissionCapacity = 16; ///< queued connections before 429
    int ioTimeoutMs = 30000; ///< per-connection read/write timeout
    /// Close a kept-alive connection after this long with no next
    /// request — bounds both idle FDs and how long a worker thread
    /// can be parked on one peer.
    int keepAliveIdleMs = 2000;
};

/** `{"error": "<message>"}` with quotes and backslashes escaped. */
std::string jsonError(const std::string &message);

class HttpFrontEnd
{
  public:
    /** Answers one request: returns the JSON body, sets *status. */
    using Handler =
        std::function<std::string(const HttpRequest &, int *status)>;

    /** @p name prefixes fatal bind errors ("mgx_serve: bind ..."). */
    HttpFrontEnd(std::string name, FrontEndOptions opts,
                 Handler handler);
    ~HttpFrontEnd();

    HttpFrontEnd(const HttpFrontEnd &) = delete;
    HttpFrontEnd &operator=(const HttpFrontEnd &) = delete;

    /** Bind, listen, and spawn the acceptor + workers. Fatal on bind
     *  failure (the address is caller-chosen configuration). */
    void start();

    /** The bound TCP port (after start(); meaningless for unix). */
    u16 port() const { return boundPort_; }

    /** Human-readable bound address, e.g. "unix:/tmp/x.sock". */
    std::string addressDescription() const;

    /** Stop admission and begin draining; returns immediately. */
    void requestShutdown();

    /** requestShutdown() + drain queued and in-flight connections +
     *  join threads + close the socket. Idempotent. */
    void shutdown();

    bool stopping() const;

    const FrontDoorMetrics &metrics() const { return metrics_; }

  private:
    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd);
    /// Serve one request off @p fd (seeded with @p carry bytes from
    /// the previous request on this connection). Returns false when
    /// the connection is done (peer closed, error, or the exchange
    /// chose Connection: close); true means keep it open and @p carry
    /// holds any bytes of the next request that already arrived.
    /// @p first distinguishes a fresh connection from a reused one.
    bool serveOneRequest(int fd, std::string *carry, bool first);
    void sendAll(int fd, const std::string &data);

    const std::string name_;
    FrontEndOptions opts_;
    Handler handler_;
    FrontDoorMetrics metrics_;

    int listenFd_ = -1;
    u16 boundPort_ = 0;
    bool started_ = false;
    bool joined_ = false;

    mutable std::mutex qmu_;
    std::condition_variable qcv_;
    std::deque<int> pending_; ///< accepted fds awaiting a worker
    bool draining_ = false;   ///< guarded by qmu_

    std::thread acceptor_;
    std::vector<std::thread> workers_;
};

} // namespace mgx::serve

#endif // MGX_SERVE_FRONT_END_H
