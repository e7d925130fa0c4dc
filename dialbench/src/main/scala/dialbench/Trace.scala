package dialbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed call into a layer. `round` is 0 for work outside the AL rounds. */
final case class Span(name: String, round: Int, startNs: Long, endNs: Long) {
  def sec: Double = (endNs - startNs) / 1e9
}

/** Spark cost attributed to one span name. */
final class SparkCost {
  var tasks = 0L
  var executorMs = 0L
  var shuffleBytes = 0L
  var gcMs = 0L
}

/** Attributes finished tasks to the span that submitted their job.
  *
  * The span name travels as a Spark local property, which the scheduler
  * copies into every stage's submission event. Listener events arrive on
  * Spark's bus thread after the fact, so [[awaitIdle]] must be called before
  * the totals are read.
  */
final class SpanListener extends SparkListener {
  private val stageSpan = mutable.HashMap.empty[Int, String]
  private val costs = mutable.HashMap.empty[String, SparkCost]
  private var submitted = 0
  private var completed = 0

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    submitted += 1
    Option(e.properties).flatMap(p => Option(p.getProperty(SpanListener.Key)))
      .foreach(stageSpan(e.stageInfo.stageId) = _)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    completed += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (span <- stageSpan.get(e.stageId); m <- Option(e.taskMetrics)) {
      val c = costs.getOrElseUpdate(span, new SparkCost)
      c.tasks += 1
      c.executorMs += m.executorRunTime
      c.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
      c.gcMs += m.jvmGCTime
    }
  }

  /** Waits until every submitted stage has been reported complete. */
  def awaitIdle(timeoutMs: Long = 10000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (synchronized(completed < submitted) && System.currentTimeMillis() < deadline)
      Thread.sleep(20)
  }

  def cost(span: String): SparkCost = synchronized(costs.getOrElse(span, new SparkCost))
}

object SpanListener {
  val Key = "dialbench.span"
}

/** In-memory span recorder. Spans are timed from outside each layer's public
  * entry point; nothing inside the program is instrumented.
  */
final class Tracer(sc: SparkContext) {
  val listener = new SpanListener
  sc.addSparkListener(listener)
  private val recorded = mutable.ArrayBuffer.empty[Span]

  def span[A](name: String, round: Int)(body: => A): A = {
    val parent = sc.getLocalProperty(SpanListener.Key)
    sc.setLocalProperty(SpanListener.Key, name)
    val t0 = System.nanoTime()
    try body
    finally {
      recorded += Span(name, round, t0, System.nanoTime())
      sc.setLocalProperty(SpanListener.Key, parent)
    }
  }

  def spans: IndexedSeq[Span] = recorded.toIndexedSeq

  /** Total seconds of every span called `name`. */
  def total(name: String): Double = recorded.iterator.filter(_.name == name).map(_.sec).sum

  def close(): Unit = { listener.awaitIdle(); sc.removeSparkListener(listener) }
}
