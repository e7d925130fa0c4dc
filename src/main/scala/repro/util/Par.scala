package repro.util

/** Data-parallel loops for driver-side work whose iterations are
  * independent, on the JVM's common fork-join pool. The calling thread takes
  * part in the work, so a call from inside another parallel loop cannot
  * deadlock.
  */
object Par {
  def foreach(n: Int)(body: Int => Unit): Unit =
    java.util.stream.IntStream.range(0, n).parallel().forEach(i => body(i))
}
