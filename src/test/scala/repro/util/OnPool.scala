package repro.util

import java.util.concurrent.{Callable, ForkJoinPool}

/** Runs `body` on a fresh fork-join pool of `threads` threads. [[Par]] loops
  * started from inside it run on that pool, so a test can fix the
  * parallelism of driver-side work.
  */
object OnPool {
  def apply[A](threads: Int)(body: => A): A = {
    val pool = new ForkJoinPool(threads)
    try pool.submit(new Callable[A] { def call(): A = body }).get()
    finally pool.shutdown()
  }
}
